//! Interactive shell against a running df-serve instance — the remote
//! counterpart of the local `repl` example, sharing its command language
//! via [`df_serve::ReplCommand`].
//!
//! ```sh
//! cargo run --release -p df-serve --bin serve_client -- --addr 127.0.0.1:7411
//! df> (restrict (scan r00) (< val 100))
//! df> :priority high
//! df> :stats
//! df> :quit
//! ```
//!
//! Flags:
//! - `--addr A`      server address (default `127.0.0.1:7411`)
//! - `--shutdown`    send a shutdown request and exit (no shell)

use std::io::{BufRead, Write};

use df_serve::proto::{Priority, Request, Response};
use df_serve::{format_stats, ReplCommand, ServeClient};

fn main() {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => {
                addr = args.next().unwrap_or_else(|| die("--addr needs a value"));
            }
            "--shutdown" => shutdown = true,
            other => die(&format!("unknown flag `{other}`")),
        }
    }

    let mut client =
        ServeClient::connect(&addr).unwrap_or_else(|e| die(&format!("cannot connect {addr}: {e}")));
    if shutdown {
        match client.request(&Request::Shutdown) {
            Ok(_) => println!("serve_client: server shutting down"),
            Err(e) => die(&format!("shutdown failed: {e}")),
        }
        return;
    }

    let mut priority = Priority::Normal;
    let mut optimizing = false;
    println!("df-serve shell @ {addr} — :help for commands.");
    let stdin = std::io::stdin();
    loop {
        print!("df> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let command = match ReplCommand::parse(&line) {
            Ok(c) => c,
            Err(e) => {
                println!("{e}");
                continue;
            }
        };
        match command {
            ReplCommand::Empty => {}
            ReplCommand::Quit => break,
            ReplCommand::Help => println!(
                ":priority high|normal|low   class for subsequent queries\n\
                 :optimize on|off            ask the server to run df-opt first\n\
                 :relations                  list served relations\n\
                 :install <name> <query>     materialize a standing view\n\
                 :view <name>                read a maintained view\n\
                 :drop <name>                drop a standing view\n\
                 :stats                      server counters\n\
                 :quit                       exit\n\
                 anything else is sent as a query, e.g.\n\
                 (restrict (scan r00) (< val 100))"
            ),
            ReplCommand::Engine(_) => {
                println!("the server picks the engine; `:engine` only works in the local repl");
            }
            ReplCommand::Optimize(on) => {
                optimizing = on;
                println!("optimizer {}", if on { "on" } else { "off" });
            }
            ReplCommand::Priority(p) => {
                priority = p;
                println!("priority = {p}");
            }
            ReplCommand::Relations => match client.request(&Request::Relations) {
                Ok(Response::Relations(rows)) => {
                    for r in rows {
                        println!("  {r}");
                    }
                }
                other => show_failure(other),
            },
            ReplCommand::Stats => match client.request(&Request::Stats) {
                Ok(Response::Stats(rows)) => println!("{}", format_stats(&rows)),
                other => show_failure(other),
            },
            ReplCommand::Install(name, text) => match client.install_view(&name, &text) {
                Ok(Response::Result(r)) => println!("view `{name}` installed, schema {}", r.schema),
                other => show_failure(other),
            },
            ReplCommand::Drop(name) => match client.drop_view(&name) {
                Ok(Response::Result(_)) => println!("view `{name}` dropped"),
                other => show_failure(other),
            },
            ReplCommand::View(name) => match client.read_view(&name) {
                Ok(Response::Result(r)) => {
                    println!("{} tuples, schema {}", r.tuples.len(), r.schema);
                    print_tuples(&r.tuples);
                }
                other => show_failure(other),
            },
            ReplCommand::Query(text) => match client.query(&text, priority, optimizing) {
                Ok(Response::Result(r)) => {
                    println!(
                        "{} tuples, schema {} (fan-out {})",
                        r.tuples.len(),
                        r.schema,
                        r.fan_out
                    );
                    print_tuples(&r.tuples);
                }
                other => show_failure(other),
            },
        }
    }
    println!("bye");
}

/// Print a reply other than the one a command asked for: the error a
/// failed request carries, or an unexpected response. A lost connection
/// ends the shell.
fn show_failure(reply: std::io::Result<Response>) {
    match reply {
        Ok(Response::Error { error, .. }) => println!("error: {error}"),
        Ok(other) => println!("unexpected response: {other:?}"),
        Err(e) => die(&format!("connection lost: {e}")),
    }
}

/// The sizes of the first ten result tuples.
fn print_tuples(tuples: &[Vec<u8>]) {
    for t in tuples.iter().take(10) {
        println!("  {} bytes", t.len());
    }
    if tuples.len() > 10 {
        println!("  ... and {} more", tuples.len() - 10);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("serve_client: {msg}");
    std::process::exit(2);
}
