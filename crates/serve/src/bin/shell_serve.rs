//! `shell_serve` — the service CLI.
//!
//! ```text
//! shell_serve serve  --state-dir DIR [--addr HOST:PORT] [--port-file PATH]
//! shell_serve submit --addr HOST:PORT REQUEST_JSON
//! shell_serve status --addr HOST:PORT --id N
//! shell_serve result --addr HOST:PORT --id N [--wait-ms MS]
//! shell_serve cancel --addr HOST:PORT --id N
//! shell_serve delta  --addr HOST:PORT BASE_REQUEST_JSON TARGET_REQUEST_JSON
//! shell_serve stats  --addr HOST:PORT
//! shell_serve drain  --addr HOST:PORT
//! shell_serve shutdown --addr HOST:PORT
//! ```
//!
//! `serve` blocks until a `shutdown` command arrives. `--port-file` writes
//! the bound port (ephemeral `:0` binds included) so scripts can find the
//! server without racing its stdout. `result` prints **only** the job's
//! result payload, compact, so scripts can byte-compare artifacts.

use shell_serve::{Client, JobRequest, Server, ServerConfig};
use shell_util::Json;
use std::process::ExitCode;

fn fail(message: &str) -> ExitCode {
    eprintln!("shell_serve: {message}");
    ExitCode::FAILURE
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flag(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn id(&self) -> Result<u64, String> {
        self.required("id")?
            .parse()
            .map_err(|_| "--id must be a number".to_string())
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let state_dir = args.required("state-dir")?;
    let config = ServerConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: args
            .flag("workers")
            .map(|w| w.parse().map_err(|_| "--workers must be a number"))
            .transpose()?
            .unwrap_or(0),
        max_queue: args
            .flag("max-queue")
            .map(|w| w.parse().map_err(|_| "--max-queue must be a number"))
            .transpose()?
            .unwrap_or(0),
        read_deadline_ms: args
            .flag("read-deadline-ms")
            .map(|w| w.parse().map_err(|_| "--read-deadline-ms must be a number"))
            .transpose()?
            .unwrap_or(0),
        ..ServerConfig::ephemeral(state_dir)
    };
    let server = Server::start(config).map_err(|e| format!("cannot start: {e}"))?;
    let addr = server.local_addr();
    if let Some(path) = args.flag("port-file") {
        std::fs::write(path, format!("{}\n", addr.port()))
            .map_err(|e| format!("cannot write port file: {e}"))?;
    }
    eprintln!("shell_serve: listening on {addr}");
    server.wait();
    Ok(())
}

fn connect(args: &Args) -> Result<Client, String> {
    let addr = match args.flag("addr") {
        Some(a) => a.to_string(),
        None => {
            let path = args.flag("port-file").ok_or("need --addr or --port-file")?;
            let port =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read port file: {e}"))?;
            format!("127.0.0.1:{}", port.trim())
        }
    };
    Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let text = args
        .positional
        .get(1)
        .ok_or("submit needs a REQUEST_JSON argument")?;
    let request = JobRequest::from_json(
        &Json::parse(text).map_err(|e| format!("request is not valid JSON: {e}"))?,
    )?;
    let submitted = connect(args)?.submit(&request).map_err(|e| e.to_string())?;
    println!(
        "{}",
        Json::obj([
            ("id", Json::from(submitted.id)),
            ("cached", Json::from(submitted.cached)),
            ("key", Json::from(submitted.key)),
        ])
        .to_string_compact()
    );
    Ok(())
}

fn cmd_result(args: &Args) -> Result<(), String> {
    let wait_ms = args
        .flag("wait-ms")
        .map(|w| w.parse().map_err(|_| "--wait-ms must be a number"))
        .transpose()?
        .unwrap_or(0);
    let doc = connect(args)?
        .result(args.id()?, wait_ms)
        .map_err(|e| e.to_string())?;
    let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "done" {
        let error = doc.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!("job finished `{status}` {error}"));
    }
    // Payload only, compact: scripts byte-compare this across runs.
    println!(
        "{}",
        doc.get("result").unwrap_or(&Json::Null).to_string_compact()
    );
    Ok(())
}

fn cmd_delta(args: &Args) -> Result<(), String> {
    let parse = |index: usize, what: &str| -> Result<JobRequest, String> {
        let text = args
            .positional
            .get(index)
            .ok_or_else(|| format!("delta needs {what} as a JSON argument"))?;
        JobRequest::from_json(
            &Json::parse(text).map_err(|e| format!("{what} is not valid JSON: {e}"))?,
        )
    };
    let base = parse(1, "BASE_REQUEST_JSON")?;
    let target = parse(2, "TARGET_REQUEST_JSON")?;
    let doc = connect(args)?
        .delta(&base, &target)
        .map_err(|e| e.to_string())?;
    println!("{}", doc.to_string_compact());
    Ok(())
}

fn print_doc(doc: Json) -> Result<(), String> {
    println!("{}", doc.to_string_compact());
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv)?;
    match args.positional.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args),
        Some("submit") => cmd_submit(&args),
        Some("status") => {
            let id = args.id()?;
            print_doc(connect(&args)?.status(id).map_err(|e| e.to_string())?)
        }
        Some("result") => cmd_result(&args),
        Some("cancel") => {
            let id = args.id()?;
            print_doc(connect(&args)?.cancel(id).map_err(|e| e.to_string())?)
        }
        Some("delta") => cmd_delta(&args),
        Some("stats") => print_doc(connect(&args)?.stats().map_err(|e| e.to_string())?),
        Some("ping") => connect(&args)?.ping().map_err(|e| e.to_string()),
        Some("drain") => print_doc(connect(&args)?.drain().map_err(|e| e.to_string())?),
        Some("shutdown") => connect(&args)?.shutdown().map_err(|e| e.to_string()),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err(
            "usage: shell_serve <serve|submit|status|result|cancel|delta|stats|ping|drain|shutdown> ..."
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => fail(&message),
    }
}
