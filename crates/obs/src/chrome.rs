//! Chrome trace-event JSON emission (the array flavor Perfetto and
//! `chrome://tracing` both accept).
//!
//! The writer is deliberately low-level: it writes one event per call
//! and leaves composing the merged timeline to the caller, so the serve
//! layer can interleave its own spans with event streams produced
//! elsewhere (the simulator's profiler export,
//! `soff_sim::chrome_trace_events`, writes into the same writer). Each
//! logical track is a `(pid, tid)` pair; callers give each clock domain
//! its own `pid` — wall-clock serve spans and simulated-cycle kernel
//! profiles must not share one, since their microseconds mean different
//! things.

use std::io::{self, Write};

/// Escapes a string for embedding in a JSON string literal: the
/// workspace's one JSON escaper.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Streams a Chrome trace-event array to `w`.
pub struct ChromeTraceWriter<W: Write> {
    w: W,
    first: bool,
}

impl<W: Write> ChromeTraceWriter<W> {
    /// Opens the array.
    pub fn new(mut w: W) -> io::Result<ChromeTraceWriter<W>> {
        w.write_all(b"[")?;
        Ok(ChromeTraceWriter { w, first: true })
    }

    /// Writes the separator for the next event and returns the raw
    /// writer; the caller emits exactly one JSON object.
    pub fn slot(&mut self) -> io::Result<&mut W> {
        if self.first {
            self.first = false;
        } else {
            self.w.write_all(b",\n")?;
        }
        Ok(&mut self.w)
    }

    /// Names a process (Perfetto group header).
    pub fn process_name(&mut self, pid: u64, name: &str) -> io::Result<()> {
        let name = esc(name);
        let w = self.slot()?;
        write!(
            w,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )
    }

    /// Names a thread (track) inside a process.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) -> io::Result<()> {
        let name = esc(name);
        let w = self.slot()?;
        write!(
            w,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )
    }

    /// A complete span (`ph:"X"`): `[ts_us, ts_us + dur_us]`, with
    /// string args.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&str, String)],
    ) -> io::Result<()> {
        let name = esc(name);
        let w = self.slot()?;
        write!(
            w,
            "{{\"ph\":\"X\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts_us},\"dur\":{dur_us}"
        )?;
        write_args(w, args)?;
        write!(w, "}}")
    }

    /// An instant event (`ph:"i"`, thread scope).
    pub fn instant(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: u64,
        args: &[(&str, String)],
    ) -> io::Result<()> {
        let name = esc(name);
        let w = self.slot()?;
        write!(
            w,
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"pid\":{pid},\
             \"tid\":{tid},\"ts\":{ts_us}"
        )?;
        write_args(w, args)?;
        write!(w, "}}")
    }

    /// A counter sample (`ph:"C"`): Perfetto renders one area chart per
    /// counter name with one series per arg key.
    pub fn counter(
        &mut self,
        pid: u64,
        name: &str,
        ts_us: u64,
        series: &[(&str, f64)],
    ) -> io::Result<()> {
        let name = esc(name);
        let w = self.slot()?;
        write!(
            w,
            "{{\"ph\":\"C\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":0,\"ts\":{ts_us},\
             \"args\":{{"
        )?;
        for (i, (k, v)) in series.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            write!(w, "\"{}\":{v}", esc(k))?;
        }
        write!(w, "}}}}")
    }

    /// Closes the array. Must be called exactly once; dropping without
    /// finishing leaves the file truncated on purpose (a crashed export
    /// should not look valid).
    pub fn finish(mut self) -> io::Result<W> {
        self.w.write_all(b"]\n")?;
        self.w.flush()?;
        Ok(self.w)
    }

    /// Whether at least one event has been written.
    pub fn any_events(&self) -> bool {
        !self.first
    }
}

fn write_args<W: Write>(w: &mut W, args: &[(&str, String)]) -> io::Result<()> {
    if args.is_empty() {
        return Ok(());
    }
    write!(w, ",\"args\":{{")?;
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(w, "\"{}\":\"{}\"", esc(k), esc(v))?;
    }
    write!(w, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_valid_json_with_all_phases() {
        let mut buf = Vec::new();
        {
            let mut tw = ChromeTraceWriter::new(&mut buf).unwrap();
            tw.process_name(0, "serve").unwrap();
            tw.thread_name(0, 1, "slot 1").unwrap();
            tw.complete(0, 1, "slice", 100, 50, &[("tenant", "t\"0".to_string())])
                .unwrap();
            tw.instant(0, 1, "admit", 90, &[]).unwrap();
            tw.counter(0, "queue_depth", 100, &[("global", 3.0)]).unwrap();
            assert!(tw.any_events());
            tw.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        crate::jsonlint::validate(&text).expect("trace must be valid JSON");
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\\\"0")); // escaped quote survived
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        let mut buf = Vec::new();
        let tw = ChromeTraceWriter::new(&mut buf).unwrap();
        tw.finish().unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().trim(), "[]");
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\t\r\u{1}"), "\\t\\r\\u0001");
    }
}
