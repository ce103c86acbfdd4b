//! One owner per store directory, at the binary: a second `pnw-server` on
//! the directory a running one serves exits non-zero with the message
//! naming the directory, and the first keeps serving.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pnw_server::{Client, ServerAddr};

/// `pnw-server` on the durable directory `store`, listening on `sock`.
fn server(sock: &Path, store: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_pnw-server"))
        .arg("--listen")
        .arg(format!("unix://{}", sock.display()))
        .arg("--path")
        .arg(store)
        .args(["--shards", "1", "--capacity", "1024", "--value-size", "16"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

#[test]
fn a_second_server_on_a_served_directory_exits_naming_it() {
    let dir = std::env::temp_dir().join(format!("pnw_one_owner_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (sock, store) = (dir.join("first.sock"), dir.join("store"));

    let mut first = server(&sock, &store);
    let mut line = String::new();
    BufReader::new(first.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("serving on"), "the first server: {line}");
    let mut client = Client::connect(&ServerAddr::Unix(sock)).unwrap();
    client.put(1, &[1; 16]).unwrap();

    // A second server that opened the directory would serve until killed.
    let mut second = server(&dir.join("second.sock"), &store);
    let give_up = Instant::now() + Duration::from_secs(20);
    while second.try_wait().unwrap().is_none() {
        if Instant::now() > give_up {
            second.kill().unwrap();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let second = second.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(!second.status.success(), "the second server: {stderr}");
    let named = format!("{} is in use", store.display());
    assert!(stderr.contains(&named), "the second server: {stderr}");

    assert_eq!(
        client.get(1).unwrap(),
        Some(vec![1; 16]),
        "the first keeps serving"
    );
    client.put(2, &[2; 16]).unwrap();
    assert_eq!(client.get(2).unwrap(), Some(vec![2; 16]));
    first.kill().unwrap();
    first.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
