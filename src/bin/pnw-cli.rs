//! pnw-cli — an interactive shell over a PNW store.
//!
//! ```text
//! cargo run --release --bin pnw-cli -- --capacity 1024 --value-size 64
//! pnw> put 1 hello world
//! pnw> get 1
//! pnw> stats
//! pnw> checkpoint
//! ```
//!
//! Commands: `put <key> <text>`, `get <key>`, `del <key>`, `train`,
//! `stats`, `extend <buckets>`, `checkpoint`, `help`, `quit`.
//! Start with `--path <dir>` for a durable store: the directory is
//! created on first use, every acknowledged command survives a kill, and
//! a later run with the same geometry flags reopens it.

use std::io::{BufRead, Write};

use pnw_core::{PnwConfig, PnwStore};

struct CliArgs {
    capacity: usize,
    value_size: usize,
    clusters: usize,
    reserve: usize,
    path: Option<std::path::PathBuf>,
}

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut out = CliArgs {
        capacity: 1024,
        value_size: 64,
        clusters: 8,
        reserve: 0,
        path: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--capacity" => out.capacity = grab("--capacity")?.parse().map_err(|e| format!("{e}"))?,
            "--value-size" => {
                out.value_size = grab("--value-size")?.parse().map_err(|e| format!("{e}"))?
            }
            "--clusters" => out.clusters = grab("--clusters")?.parse().map_err(|e| format!("{e}"))?,
            "--reserve" => out.reserve = grab("--reserve")?.parse().map_err(|e| format!("{e}"))?,
            "--path" => out.path = Some(grab("--path")?.into()),
            other => return Err(format!("unknown flag '{other}' (see --help)")),
        }
    }
    Ok(out)
}

/// Pads or truncates a UTF-8 payload to the store's fixed value size.
fn fit_value(text: &str, size: usize) -> Vec<u8> {
    let mut v = text.as_bytes().to_vec();
    v.resize(size, 0);
    v
}

/// Renders a stored value: the UTF-8 prefix up to the first NUL.
fn show_value(v: &[u8]) -> String {
    let end = v.iter().position(|&b| b == 0).unwrap_or(v.len());
    String::from_utf8_lossy(&v[..end]).into_owned()
}

fn run_command(store: &PnwStore, line: &str) -> Result<String, String> {
    let mut parts = line.split_whitespace();
    let cmd = match parts.next() {
        Some(c) => c,
        None => return Ok(String::new()),
    };
    match cmd {
        "put" => {
            let key: u64 = parts
                .next()
                .ok_or("usage: put <key> <text>")?
                .parse()
                .map_err(|e| format!("bad key: {e}"))?;
            let rest: Vec<&str> = parts.collect();
            let text = rest.join(" ");
            let value = fit_value(&text, store.config().value_size);
            let r = store.put(key, &value).map_err(|e| e.to_string())?;
            Ok(format!(
                "ok: cluster {} ({} bit flips, {} lines, predict {:?})",
                r.cluster, r.value_write.bit_flips, r.total_write.lines_written, r.predict
            ))
        }
        "get" => {
            let key: u64 = parts
                .next()
                .ok_or("usage: get <key>")?
                .parse()
                .map_err(|e| format!("bad key: {e}"))?;
            match store.get(key).map_err(|e| e.to_string())? {
                Some(v) => Ok(format!("\"{}\"", show_value(&v))),
                None => Ok("(not found)".into()),
            }
        }
        "del" => {
            let key: u64 = parts
                .next()
                .ok_or("usage: del <key>")?
                .parse()
                .map_err(|e| format!("bad key: {e}"))?;
            let existed = store.delete(key).map_err(|e| e.to_string())?;
            Ok(if existed { "deleted" } else { "(not found)" }.into())
        }
        "train" => {
            let t = store.retrain_now().map_err(|e| e.to_string())?;
            Ok(format!("trained K={} in {t:?}", store.model_k()))
        }
        "extend" => {
            let n: usize = parts
                .next()
                .ok_or("usage: extend <buckets>")?
                .parse()
                .map_err(|e| format!("bad count: {e}"))?;
            let added = store.extend_zone(n);
            Ok(format!(
                "activated {added} buckets (capacity now {}, reserve {})",
                store.active_capacity(),
                store.reserve_remaining()
            ))
        }
        "stats" => {
            let s = store.snapshot();
            Ok(format!(
                "live {} / {} buckets ({} free), K={}, retrains {}\n\
                 puts {} ({} updated in place) gets {} ({} waited on a writer) deletes {}, fallbacks {}\n\
                 bit flips/512b: {:.2}, lines/write: {:.2}, mean predict {:?}\n\
                 last train {:?} (sample {:?}, pca fit {:?} {:?}, project {:?}, kmeans {:?}, tables {:?})\n\
                 label pass {:?}: {} labelled, {} stale at install, {} predicted at install",
                s.live,
                s.capacity,
                s.free,
                s.k,
                s.retrains,
                s.puts,
                s.updates_in_place,
                s.gets,
                s.read_waits,
                s.deletes,
                s.fallbacks,
                s.device.mean_flips_per_512(),
                s.device.mean_lines_per_write(),
                s.mean_predict_latency(),
                s.train.last_train_wall,
                s.train.phases.sample,
                s.train.phases.pca_fit,
                s.train.basis,
                s.train.phases.project,
                s.train.phases.kmeans,
                s.train.phases.table_build,
                s.train.phases.label,
                s.train.labelled,
                s.train.stale_at_install,
                s.train.predicted_at_install,
            ))
        }
        "checkpoint" => {
            if !store.is_durable() {
                return Ok("volatile store: nothing to checkpoint (start with --path DIR)".into());
            }
            store.checkpoint().map_err(|e| e.to_string())?;
            Ok("checkpoint cut, WAL truncated".into())
        }
        "help" => Ok("commands: put get del train extend stats checkpoint help quit".into()),
        other => Err(format!("unknown command '{other}' (try help)")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "pnw-cli [--capacity N] [--value-size N] [--clusters K] [--reserve N] [--path DIR]"
        );
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cfg = PnwConfig::new(args.capacity, args.value_size)
        .with_clusters(args.clusters)
        .with_reserve(args.reserve);
    let store = match &args.path {
        Some(dir) => match PnwStore::open(cfg.with_path(dir)) {
            Ok(s) => {
                println!("opened {} ({} live keys)", dir.display(), s.len());
                s
            }
            Err(e) => {
                eprintln!("error: cannot open {}: {e}", dir.display());
                std::process::exit(2);
            }
        },
        None => PnwStore::new(cfg),
    };

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("pnw> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match run_command(&store, line) {
            Ok(msg) if msg.is_empty() => {}
            Ok(msg) => println!("{msg}"),
            Err(e) => println!("error: {e}"),
        }
    }
    if let Err(e) = store.close() {
        eprintln!("error: final checkpoint failed: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_fitting() {
        assert_eq!(fit_value("ab", 4), vec![b'a', b'b', 0, 0]);
        assert_eq!(fit_value("abcdef", 4), vec![b'a', b'b', b'c', b'd']);
        assert_eq!(show_value(&[b'h', b'i', 0, 0]), "hi");
        assert_eq!(show_value(b"full"), "full");
    }

    #[test]
    fn arg_parsing() {
        let a = parse_args(&[
            "--capacity".into(),
            "64".into(),
            "--value-size".into(),
            "16".into(),
        ])
        .unwrap();
        assert_eq!(a.capacity, 64);
        assert_eq!(a.value_size, 16);
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--capacity".into()]).is_err());
    }

    #[test]
    fn command_loop_against_store() {
        let store = PnwStore::new(PnwConfig::new(16, 8).with_clusters(2));
        assert!(run_command(&store, "put 1 hello").unwrap().starts_with("ok"));
        assert_eq!(run_command(&store, "get 1").unwrap(), "\"hello\"");
        assert!(run_command(&store, "train").unwrap().contains("trained"));
        // Same bytes again: the trained store rewrites the key in place.
        assert!(run_command(&store, "put 1 hello").unwrap().starts_with("ok"));
        let stats = run_command(&store, "stats").unwrap();
        assert!(stats.contains("(1 updated in place)"), "{stats}");
        assert!(stats.contains("gets 1 (0 waited on a writer)"), "{stats}");
        assert_eq!(run_command(&store, "del 1").unwrap(), "deleted");
        assert_eq!(run_command(&store, "get 1").unwrap(), "(not found)");
        assert!(run_command(&store, "stats").unwrap().contains("live 0"));
        assert!(run_command(&store, "checkpoint")
            .unwrap()
            .contains("volatile"));
        assert!(run_command(&store, "nope").is_err());
        assert_eq!(run_command(&store, "").unwrap(), "");
    }
}
