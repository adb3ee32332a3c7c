//! A `tamopt serve` daemon on a unix socket, and the closed-loop
//! clients that drive it.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Paths of one daemon's socket, journal (`None`: run without one) and
/// warm-start store.
pub struct Files {
    pub socket: PathBuf,
    pub journal: Option<PathBuf>,
    pub store: PathBuf,
    pub stderr: PathBuf,
}

impl Files {
    pub fn in_dir(dir: &Path, tag: &str) -> Self {
        Files {
            socket: dir.join(format!("{tag}.sock")),
            journal: Some(dir.join(format!("{tag}.tamjrnl"))),
            store: dir.join(format!("{tag}.tamstore")),
            stderr: dir.join(format!("{tag}.stderr")),
        }
    }
}

pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `tamopt serve` and waits until it announces its socket;
    /// returns the daemon and that set-up time (store preload and
    /// journal open included).
    pub fn spawn(binary: &Path, files: &Files) -> Result<(Daemon, Duration), String> {
        let stderr = File::create(&files.stderr).map_err(|e| format!("{:?}: {e}", files.stderr))?;
        let mut command = Command::new(binary);
        command.arg("serve").arg("--socket").arg(&files.socket);
        if let Some(journal) = &files.journal {
            command
                .arg("--journal")
                .arg(journal)
                .args(["--sync", "always"]);
        }
        let start = Instant::now();
        let mut child = command
            .arg("--store")
            .arg(&files.store)
            .args(["--threads", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {binary:?}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
        };
        loop {
            let mut line = String::new();
            let read = daemon.stdout.read_line(&mut line);
            match read {
                Ok(0) | Err(_) => {
                    let _ = daemon.stop();
                    return Err(format!(
                        "daemon exited before listening; see {:?}",
                        files.stderr
                    ));
                }
                Ok(_) if line.starts_with("{\"listening\"") => break,
                Ok(_) => {}
            }
        }
        Ok((daemon, start.elapsed()))
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// Closes stdin (the daemon's shutdown signal), drains its final
    /// report and waits for it to exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on error paths: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One closed-loop client connection: it sends its next request only
/// after reading the previous one's outcome line.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect {socket:?}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
        };
        let greeting = client.read_line()?;
        if !greeting.contains("\"client\": ") {
            return Err(format!("unexpected greeting `{greeting}`"));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends `line` and returns the response line with the time from
    /// writing the request to reading the response.
    pub fn request(&mut self, line: &str) -> Result<(String, Duration), String> {
        let start = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let response = self.read_line()?;
        Ok((response, start.elapsed()))
    }
}
