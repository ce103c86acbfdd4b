//! The traced run's span recorder. Spans are taken from the benchmark's own
//! side of each call into a layer, kept in memory, and written out as JSON
//! lines when the workload ends. Nothing inside the program is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One interval at a layer boundary. `parent` is the id of the span that
/// caused it (0 = none); spans of one operation share `op`; `key` is the key
/// the operation addressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub key: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Ids are made unique across threads by giving
/// each recorder its own id range (`lane`).
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of one run so their clocks agree.
    pub fn new(epoch: Instant, lane: u64) -> Recorder {
        Recorder {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from two instants; returns its id for children.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        op: (u64, u64),
    ) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.span_ns(name, start_ns, end_ns, parent, op)
    }

    /// Records a span whose bounds are already nanoseconds since the epoch
    /// (child intervals reconstructed from a report carry no `Instant`).
    /// `op` is `(operation id, key)`.
    pub fn span_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        op: (u64, u64),
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            op: op.0,
            key: op.1,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (overlapping children are counted once). Returned
/// in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = cursor.max(b);
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Writes one JSON object per line, in start order.
pub fn write_jsonl(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"key\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            if s.parent == 0 { "null".to_string() } else { s.parent.to_string() },
            s.op,
            s.key,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            key: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),  // root
            span(2, 1, 10, 30),  // child
            span(3, 1, 20, 50),  // overlaps child 2: union is 10..50
            span(4, 1, 90, 120), // sticks out past the parent: only 90..100 counts
            span(5, 2, 12, 14),  // grandchild: comes off span 2, not the root
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 2, 30, 30, 2]);
    }

    #[test]
    fn childless_and_fully_covered_spans() {
        let spans = vec![span(1, 0, 5, 25), span(2, 0, 0, 10), span(3, 2, 0, 10)];
        assert_eq!(self_times(&spans), vec![20, 0, 10]);
    }

    #[test]
    fn recorder_lanes_do_not_collide_and_jsonl_is_one_object_per_line() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0);
        let mut b = Recorder::new(epoch, 1);
        let root = a.span_ns("client.call.put", 0, 10, 0, (7, 42));
        a.span_ns("store.put", 2, 8, root, (7, 42));
        b.span_ns("client.call.get", 1, 9, 0, (8, 43));
        let mut spans = a.into_spans();
        spans.extend(b.into_spans());
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        let dir = crate::test_dir("trace");
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &mut spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v = crate::json::Json::parse(line).unwrap();
            assert!(v.get("name").is_some() && v.get("start_ns").is_some());
        }
    }
}
