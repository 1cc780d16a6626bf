//! A small blocking client for tools, benchmarks and tests.

use crate::protocol::{JobSpec, JobStatus, ParetoEntry, Reply, Request, ServerStats};
use crate::server::Listen;
use crate::{Result, ServeError};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::thread;
use std::time::Duration;

use clapped_obs::Deadline;

enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn try_clone_reader(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// A blocking connection to a `clapped-serve` daemon.
pub struct Client {
    writer: Stream,
    reader: BufReader<Stream>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn connect(listen: &Listen) -> Result<Client> {
        let stream = match listen {
            Listen::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
            Listen::Uds(path) => Stream::Uds(UnixStream::connect(path)?),
        };
        let reader = BufReader::new(stream.try_clone_reader()?);
        Ok(Client { writer: stream, reader })
    }

    /// Sends one raw line (no newline) and reads one reply line — the
    /// escape hatch protocol-robustness tests use to send garbage.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`ServeError::Protocol`] if the reply line does
    /// not decode.
    pub fn roundtrip_raw(&mut self, line: &str) -> Result<Reply> {
        // One write for the line and its newline: over TCP, Nagle's
        // algorithm holds a second small write until the daemon ACKs the
        // first, and the daemon delays that ACK while it waits for the
        // rest of the line (about 40 ms a request).
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        let mut reply_line = String::new();
        let n = self.reader.read_line(&mut reply_line)?;
        if n == 0 {
            return Err(ServeError::State("server closed the connection".to_string()));
        }
        Reply::decode(reply_line.trim_end())
    }

    /// Sends a request and decodes the reply. A structured error reply
    /// becomes [`ServeError::Remote`].
    ///
    /// # Errors
    ///
    /// I/O failures, undecodable replies, or a remote error reply.
    pub(crate) fn roundtrip(&mut self, request: &Request) -> Result<Reply> {
        match self.roundtrip_raw(&request.encode())? {
            Reply::Error { code, detail } => Err(ServeError::Remote { code, detail }),
            reply => Ok(reply),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport or remote errors.
    pub fn ping(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a job; returns the assigned job id.
    ///
    /// # Errors
    ///
    /// Transport or remote errors (e.g. `bad-spec`, `shutting-down`).
    pub fn submit(&mut self, tenant: &str, spec: JobSpec) -> Result<String> {
        let request = Request::Submit { tenant: tenant.to_string(), spec };
        match self.roundtrip(&request)? {
            Reply::Submitted { job } => Ok(job),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches one job's progress.
    ///
    /// # Errors
    ///
    /// Transport or remote errors (e.g. `unknown-job`).
    pub fn status(&mut self, job: &str) -> Result<JobStatus> {
        match self.roundtrip(&Request::Status { job: job.to_string() })? {
            Reply::Status(status) => Ok(status),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches one job's status and Pareto front.
    ///
    /// # Errors
    ///
    /// Transport or remote errors (e.g. `unknown-job`).
    pub fn result(&mut self, job: &str) -> Result<(JobStatus, Vec<ParetoEntry>)> {
        match self.roundtrip(&Request::Result { job: job.to_string() })? {
            Reply::JobResult { status, pareto } => Ok((status, pareto)),
            other => Err(unexpected(&other)),
        }
    }

    /// Lists all jobs.
    ///
    /// # Errors
    ///
    /// Transport or remote errors.
    pub fn jobs(&mut self) -> Result<Vec<JobStatus>> {
        match self.roundtrip(&Request::Jobs)? {
            Reply::Jobs(jobs) => Ok(jobs),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches aggregate server counters.
    ///
    /// # Errors
    ///
    /// Transport or remote errors.
    pub fn stats(&mut self) -> Result<ServerStats> {
        match self.roundtrip(&Request::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Requests a graceful drain.
    ///
    /// # Errors
    ///
    /// Transport or remote errors.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Reply::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Polls `job` every `poll` until it reaches a terminal state or
    /// `limit` expires.
    ///
    /// # Errors
    ///
    /// Transport or remote errors, or [`ServeError::State`] when the
    /// limit expires first.
    pub fn wait(&mut self, job: &str, poll: Duration, limit: Deadline) -> Result<JobStatus> {
        loop {
            let status = self.status(job)?;
            if status.state.is_terminal() {
                return Ok(status);
            }
            if limit.expired() {
                return Err(ServeError::State(format!("job `{job}` still running at deadline")));
            }
            thread::sleep(poll);
        }
    }
}

fn unexpected(reply: &Reply) -> ServeError {
    ServeError::State(format!("unexpected reply variant: {reply:?}"))
}
