//! `cstrace` — trace-file utility in the spirit of smoltcp's `tcpdump`
//! example: generate simulated traces to disk, summarize them, and convert
//! between the compact binary format and libpcap.
//!
//! ```text
//! cstrace gen <out.{trace|pcap}> [--minutes N] [--seed S]
//! cstrace info <file.{trace|pcap}>
//! cstrace convert <in.{trace|pcap}> <out.{trace|pcap}>
//! ```

use csprov_game::{ScenarioConfig, World};
use csprov_net::pcap::{PcapReader, PcapSink, PcapWriter};
use csprov_net::trace::WriterSink;
use csprov_net::{Direction, PacketKind, TraceReader, TraceRecord, TraceSink, TraceWriter};
use csprov_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::rc::Rc;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Binary,
    Pcap,
}

fn format_of(path: &str) -> Result<Format, String> {
    if path.ends_with(".pcap") {
        Ok(Format::Pcap)
    } else if path.ends_with(".trace") {
        Ok(Format::Binary)
    } else {
        Err(format!("{path}: expected a .trace or .pcap extension"))
    }
}

/// Per-kind and per-direction roll-up used by `info`.
#[derive(Default)]
struct Summary {
    packets: [u64; 2],
    app_bytes: [u64; 2],
    by_kind: [u64; 12],
    first: Option<SimTime>,
    last: SimTime,
}

impl TraceSink for Summary {
    fn on_packet(&mut self, rec: &TraceRecord) {
        let d = match rec.direction {
            Direction::Inbound => 0,
            Direction::Outbound => 1,
        };
        self.packets[d] += 1;
        self.app_bytes[d] += u64::from(rec.app_len);
        self.by_kind[rec.kind.as_u8() as usize] += 1;
        if self.first.is_none() {
            self.first = Some(rec.time);
        }
        self.last = rec.time;
    }
}

impl Summary {
    fn print(&self, path: &str) {
        let total = self.packets[0] + self.packets[1];
        let span = self
            .first
            .map(|f| self.last.saturating_since(f))
            .unwrap_or(SimDuration::ZERO);
        let secs = span.as_secs_f64().max(1e-9);
        println!("{path}:");
        println!(
            "  packets           {total} ({} in / {} out)",
            self.packets[0], self.packets[1]
        );
        println!("  span              {:.3} s", span.as_secs_f64());
        println!("  mean load         {:.1} pps", total as f64 / secs);
        let wire = self.app_bytes[0]
            + self.app_bytes[1]
            + total * u64::from(csprov_net::WIRE_OVERHEAD_BYTES);
        println!(
            "  mean bandwidth    {:.0} kbps (wire)",
            wire as f64 * 8.0 / secs / 1000.0
        );
        for (i, d) in ["in", "out"].iter().enumerate() {
            if self.packets[i] > 0 {
                println!(
                    "  mean size {d:<3}     {:.2} B",
                    self.app_bytes[i] as f64 / self.packets[i] as f64
                );
            }
        }
        println!("  by kind:");
        for k in PacketKind::ALL {
            let n = self.by_kind[k.as_u8() as usize];
            if n > 0 {
                println!(
                    "    {:<16} {n:>12} ({:.2}%)",
                    format!("{k:?}"),
                    n as f64 / total as f64 * 100.0
                );
            }
        }
    }
}

fn replay(path: &str, sink: &mut dyn TraceSink) -> Result<u64, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut n = 0;
    let mut last = SimTime::ZERO;
    match format_of(path)? {
        Format::Binary => {
            let mut r =
                TraceReader::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
            while let Some(rec) = r.read().map_err(|e| format!("{path}: {e}"))? {
                last = rec.time;
                sink.on_packet(&rec);
                n += 1;
            }
        }
        Format::Pcap => {
            let mut r =
                PcapReader::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
            while let Some(rec) = r.read().map_err(|e| format!("{path}: {e}"))? {
                last = rec.time;
                sink.on_packet(&rec);
                n += 1;
            }
        }
    }
    sink.on_end(last);
    Ok(n)
}

fn cmd_gen(out: &str, minutes: u64, seed: u64) -> Result<(), String> {
    let fmt = format_of(out)?;
    let file = BufWriter::new(File::create(out).map_err(|e| format!("{out}: {e}"))?);
    let cfg = ScenarioConfig::scaled(seed, SimDuration::from_mins(minutes));
    eprintln!("simulating {minutes} minutes (seed {seed})...");
    let written = match fmt {
        Format::Binary => {
            let sink = Rc::new(RefCell::new(WriterSink::new(
                TraceWriter::new(file).map_err(|e| e.to_string())?,
            )));
            World::run(cfg, sink.clone());
            let sink = Rc::try_unwrap(sink)
                .map_err(|_| "sink leaked")?
                .into_inner();
            let n = sink.records_written();
            sink.finish().map_err(|e| e.to_string())?;
            n
        }
        Format::Pcap => {
            let sink = Rc::new(RefCell::new(PcapSink::new(
                PcapWriter::new(file).map_err(|e| e.to_string())?,
            )));
            World::run(cfg, sink.clone());
            let sink = Rc::try_unwrap(sink)
                .map_err(|_| "sink leaked")?
                .into_inner();
            let n = sink.frames_written();
            sink.finish().map_err(|e| e.to_string())?;
            n
        }
    };
    eprintln!("wrote {written} packets to {out}");
    Ok(())
}

fn cmd_info(path: &str) -> Result<(), String> {
    let mut s = Summary::default();
    replay(path, &mut s)?;
    s.print(path);
    Ok(())
}

fn cmd_convert(input: &str, output: &str) -> Result<(), String> {
    let out_fmt = format_of(output)?;
    let file = BufWriter::new(File::create(output).map_err(|e| format!("{output}: {e}"))?);
    let n = match out_fmt {
        Format::Binary => {
            let mut sink = WriterSink::new(TraceWriter::new(file).map_err(|e| e.to_string())?);
            let n = replay(input, &mut sink)?;
            sink.finish().map_err(|e| e.to_string())?;
            n
        }
        Format::Pcap => {
            let mut sink = PcapSink::new(PcapWriter::new(file).map_err(|e| e.to_string())?);
            let n = replay(input, &mut sink)?;
            sink.finish().map_err(|e| e.to_string())?;
            n
        }
    };
    eprintln!("converted {n} packets {input} -> {output}");
    Ok(())
}

/// Parses `gen`'s flags, `--minutes N` (default 10) and `--seed S`
/// (default 2002). An unknown flag, a missing value or a value that is not
/// a non-negative integer is an error naming it, so a typo never silently
/// simulates the defaults.
fn parse_gen_flags(flags: &[String]) -> Result<(u64, u64), String> {
    let (mut minutes, mut seed) = (10u64, 2002u64);
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let (slot, placeholder) = match flag.as_str() {
            "--minutes" => (&mut minutes, "N"),
            "--seed" => (&mut seed, "S"),
            other => return Err(format!("unknown option: {other}")),
        };
        let value = flags
            .next()
            .ok_or_else(|| format!("{flag} needs {placeholder}"))?;
        *slot = value
            .parse()
            .map_err(|e| format!("bad {flag} '{value}': {e}"))?;
    }
    Ok((minutes, seed))
}

fn usage() {
    eprintln!("usage: cstrace gen <out.trace|out.pcap> [--minutes N] [--seed S]");
    eprintln!("       cstrace info <file>");
    eprintln!("       cstrace convert <in> <out>");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") if args.len() >= 2 => match parse_gen_flags(&args[2..]) {
            Ok((minutes, seed)) => cmd_gen(&args[1], minutes, seed),
            Err(e) => {
                eprintln!("error: {e}");
                usage();
                return ExitCode::FAILURE;
            }
        },
        Some("info") if args.len() == 2 => cmd_info(&args[1]),
        Some("convert") if args.len() == 3 => cmd_convert(&args[1], &args[2]),
        _ => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_gen_flags;

    fn parse(args: &[&str]) -> Result<(u64, u64), String> {
        parse_gen_flags(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn gen_flags_default_and_parse() {
        assert_eq!(parse(&[]), Ok((10, 2002)));
        assert_eq!(parse(&["--seed", "7", "--minutes", "2"]), Ok((2, 7)));
    }

    #[test]
    fn gen_rejects_what_it_cannot_parse() {
        for (args, names) in [
            (&["--minutes", "abc"][..], "'abc'"),
            (&["--minute", "3"][..], "--minute"),
            (&["--seed"][..], "--seed needs S"),
            (&["--seed", "-1"][..], "'-1'"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(names), "{args:?}: {err}");
        }
    }
}
