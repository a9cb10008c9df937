//! Wire protocol of the compile service: the `.vcart` discipline on a
//! socket, content-negotiated.
//!
//! Control frames are plain line-oriented text — the same format family
//! as the artifact store's `.vcart` files: a versioned header line, one
//! `tag operands…` line per field, an `end` terminator. Bulk payloads
//! (unit source bodies, the sweep-response cell table) travel as
//! **length-prefixed blobs** inside the frame, so the 10k-unit response
//! path is one `read_exact`, not ten thousand line scans. No serde, no
//! external deps, and every control line is printable, which keeps the
//! protocol greppable in transcripts and trivially testable.
//!
//! **Framing.** One message = the lines from its header through its `end`
//! line inclusive. A `blob <nbytes>` line is followed by exactly `nbytes`
//! raw bytes and a newline; [`read_frame`] consumes blobs by length, so
//! blob contents may contain anything — including a line reading `end` —
//! without confusing the framing. A closed connection mid-message is a
//! protocol error, never a partial result.
//!
//! **Content negotiation.** Unit sources are identified by the digest of
//! their canonical (pretty-printed) text ([`source_digest`]). A client
//! first sends a `have` frame listing its digests; the server answers
//! `need` with the subset it has never parsed. Only those bodies travel —
//! a fully warm request ships **zero unit bodies**, just `unit-ref`
//! lines. The server keeps a bounded, LRU-evicting parse cache (digest →
//! canonical text + its key prefix) so each distinct unit is uploaded,
//! parsed and typechecked once per digest across requests, batches and
//! clients; an evicted digest simply
//! turns up in `need` again (or, if it races a sweep, yields an
//! `unknown unit digest` error the client answers by re-uploading).
//!
//! **Grammar** (one message per block):
//!
//! ```text
//! blob     := "blob" nbytes NL <nbytes raw bytes> NL
//!
//! request  := "vericomp-request 2" NL body "end" NL
//! body     := sweep | have | "stats" NL | "shutdown" NL
//!           | "metrics" NL | "recorder-dump" NL      ; admin (proto 2.1)
//! have     := "have" n NL ("digest" hex32 NL){n}      ; which do you need?
//! sweep    := "sweep" NL trace? unit* config+ machine+
//! trace    := "trace" hex16 NL                ; client trace id (2.1)
//! unit     := "unit-ref" entry hex32 name NL          ; body already server-side
//!           | "unit" entry hex32 name NL blob         ; blob = canonical source
//! config   := "config" label bits10 NL        ; PassConfig, key-order bits
//! machine  := "machine" label u32{24} NL      ; machine_digest field order
//!
//! response := "vericomp-response 2" NL rbody "end" NL
//! rbody    := rsweep | need | rstats | "ok" NL | "error" message NL
//!           | "metrics" NL blob | "recorder" NL blob  ; JSON admin payloads
//! need     := "need" n NL ("digest" hex32 NL){n}      ; never-seen subset
//! rsweep   := "sweep" NL blob                         ; blob = payload
//! payload  := "axes" nunits nconfigs nmachines NL label-lines cell* span* stats digest
//! cell     := "cell" unit config machine wcet cached vbits3 hex32 NL
//! span     := "span" cat job ts_ns dur_ns name detail? NL   ; traced requests (2.1)
//! stats    := "stats" jobs_run jobs_cached compile_ns analyze_ns store_ns wall_ns NL
//! digest   := "digest" hex32 NL
//! ```
//!
//! Uploaded bodies are canonical pretty-printed MiniC and are verified
//! against their declared digest at decode time, then parsed and
//! typechecked once before entering the server's parse cache (an
//! ill-typed body fails its own request, not the batch it would join);
//! the parser/pretty round-trip is identity on
//! ASTs (gated by `tests/parser_roundtrip.rs`), so the server derives
//! **the same cache keys** a local run would — a client's cells hit the
//! daemon's warm store exactly when a solo run would hit its own. The
//! determinism gates assert that digest-negotiated requests produce
//! responses bit-identical to solo `run_sweep` runs.
//!
//! Names and axis labels must be non-empty and whitespace-free — enforced
//! at encode *and* decode time, so a malformed peer cannot smuggle a
//! misframed document through.

use std::fmt;
use std::io::{self, BufRead, Read};
use std::sync::Arc;

use vericomp_arch::config::CacheConfig;
use vericomp_arch::MachineConfig;
use vericomp_core::{OptLevel, PassConfig};

use crate::hash::{Digest, Hasher};
use crate::stats::PipelineStats;
use crate::store::{source_digest, Verdict};
use crate::sweep::{SweepResult, SweepSpec};
use crate::trace::{Span, SpanKind};

/// Protocol version. Bump on any grammar change — mismatched peers fail
/// loudly at the header instead of misparsing bodies.
pub const PROTO_VERSION: u32 = 2;

/// Protocol **minor** (capability level) within version 2, additive only.
/// Minor 1 adds: the optional `trace` line on sweep requests, `span`
/// lines in the sweep-response payload, and the `metrics` /
/// `recorder-dump` admin requests. Servers advertise theirs in
/// [`ServerStats::proto_minor`]; a client that needs tracing checks it
/// (and maps the older server's `unknown request tag` error to a clear
/// versioned message either way).
pub const PROTO_MINOR: u32 = 1;

const REQUEST_WORD: &str = "vericomp-request";
const RESPONSE_WORD: &str = "vericomp-response";
const REQUEST_HEADER: &str = "vericomp-request 2";
const RESPONSE_HEADER: &str = "vericomp-response 2";

/// Upper bound on a single `blob` payload. A peer declaring more is
/// rejected at the framing layer before any allocation of that size.
pub const MAX_BLOB_BYTES: u64 = 1 << 30;

/// A malformed or out-of-protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(msg.into()))
}

/// Checks a name/label operand: non-empty, no whitespace (they are
/// space-separated operands on the wire).
fn check_word(kind: &str, word: &str) -> Result<(), ProtoError> {
    if word.is_empty() {
        return err(format!("empty {kind}"));
    }
    if word.chars().any(char::is_whitespace) {
        return err(format!("{kind} `{word}` contains whitespace"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

/// Reads one frame (header through its `end` line) off a buffered stream,
/// honoring `blob <nbytes>` length prefixes: blob contents are consumed
/// by exact length, never scanned for `end`. Returns `Ok(None)` on a
/// clean EOF at a frame boundary; EOF mid-frame (including mid-blob) is
/// an [`io::ErrorKind::UnexpectedEof`] error.
///
/// Both the client and the server's connection readers frame with this
/// one function, so either side can be tested against the other with
/// nothing but a socket pair.
///
/// # Errors
///
/// I/O errors from the stream; `InvalidData` for a blob declared larger
/// than [`MAX_BLOB_BYTES`].
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut frame: Vec<u8> = Vec::new();
    loop {
        let start = frame.len();
        let n = reader.read_until(b'\n', &mut frame)?;
        if n == 0 {
            return if frame.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            };
        }
        let line = &frame[start..];
        let line = line.strip_suffix(b"\n").unwrap_or(line);
        if line == b"end" {
            return Ok(Some(frame));
        }
        if let Some(count) = line.strip_prefix(b"blob ") {
            // an unparseable count falls through to line scanning; the
            // decoder reports the malformation, framing stays safe
            let Some(nbytes) = std::str::from_utf8(count)
                .ok()
                .and_then(|w| w.parse::<u64>().ok())
            else {
                continue;
            };
            if nbytes > MAX_BLOB_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("blob of {nbytes} bytes exceeds the {MAX_BLOB_BYTES} byte cap"),
                ));
            }
            let before = frame.len();
            reader.take(nbytes).read_to_end(&mut frame)?;
            if (frame.len() - before) as u64 != nbytes {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-blob",
                ));
            }
        }
    }
}

/// Views a raw frame as text. Frames are UTF-8 by construction on the
/// encode side; a peer sending arbitrary bytes gets a protocol error,
/// never a panic.
///
/// # Errors
///
/// [`ProtoError`] when the frame is not valid UTF-8.
pub fn frame_text(frame: &[u8]) -> Result<&str, ProtoError> {
    std::str::from_utf8(frame).map_err(|_| ProtoError("frame is not valid UTF-8".into()))
}

/// A byte-offset cursor over a frame: line-at-a-time like the v1 decoder,
/// plus exact-length blob extraction that never confuses blob contents
/// with control lines.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Cursor<'a> {
        Cursor { s, pos: 0 }
    }

    /// The next line (without its newline), or `None` at end of frame.
    fn line(&mut self) -> Option<&'a str> {
        if self.pos >= self.s.len() {
            return None;
        }
        let rest = &self.s[self.pos..];
        match rest.find('\n') {
            Some(i) => {
                self.pos += i + 1;
                Some(&rest[..i])
            }
            None => {
                self.pos = self.s.len();
                Some(rest)
            }
        }
    }

    /// Exactly `nbytes` of blob content followed by its newline. Errors
    /// when the blob runs past the frame or splits a UTF-8 boundary (a
    /// hostile count can land mid-character; `str::get` refuses).
    fn blob(&mut self, nbytes: usize) -> Result<&'a str, ProtoError> {
        let end = self
            .pos
            .checked_add(nbytes)
            .ok_or_else(|| ProtoError("blob length overflows".into()))?;
        let content = self
            .s
            .get(self.pos..end)
            .ok_or_else(|| ProtoError("blob extends past the frame".into()))?;
        if self.s.as_bytes().get(end) != Some(&b'\n') {
            return err("blob not newline-terminated");
        }
        self.pos = end + 1;
        Ok(content)
    }
}

/// Parses a `blob <nbytes>` control line.
fn blob_line(line: Option<&str>) -> Result<usize, ProtoError> {
    let line = line.ok_or_else(|| ProtoError("frame truncated before blob".into()))?;
    let count = line
        .strip_prefix("blob ")
        .ok_or_else(|| ProtoError(format!("expected a blob line, got `{line}`")))?;
    let nbytes: u64 = count
        .parse()
        .map_err(|_| ProtoError(format!("bad blob length `{count}`")))?;
    if nbytes > MAX_BLOB_BYTES {
        return err(format!("blob of {nbytes} bytes exceeds the cap"));
    }
    #[allow(clippy::cast_possible_truncation)]
    Ok(nbytes as usize)
}

/// Checks a `vericomp-request N` / `vericomp-response N` header line,
/// naming both versions on a mismatch so a skewed peer sees exactly what
/// to upgrade.
fn check_header(line: Option<&str>, word: &str) -> Result<(), ProtoError> {
    let Some(line) = line else {
        return err(format!("empty frame (expected `{word} {PROTO_VERSION}`)"));
    };
    let Some(rest) = line.strip_prefix(word) else {
        return err(format!(
            "bad header `{line}` (expected `{word} {PROTO_VERSION}`)"
        ));
    };
    let Some(version) = rest.strip_prefix(' ') else {
        return err(format!(
            "bad header `{line}` (expected `{word} {PROTO_VERSION}`)"
        ));
    };
    match version.parse::<u32>() {
        Ok(v) if v == PROTO_VERSION => Ok(()),
        Ok(v) => err(format!(
            "unsupported protocol version {v}: this peer speaks `{word} {PROTO_VERSION}`"
        )),
        Err(_) => err(format!("bad header `{line}`")),
    }
}

// ---------------------------------------------------------------------------
// field codecs
// ---------------------------------------------------------------------------

/// `PassConfig` as ten `0`/`1` characters in cache-key order.
#[must_use]
pub fn passes_to_bits(p: &PassConfig) -> String {
    [
        p.mem2reg,
        p.constprop,
        p.cse,
        p.dce,
        p.tunnel,
        p.strength,
        p.schedule,
        p.sda,
        p.full_palette,
        p.validators,
    ]
    .iter()
    .map(|&b| if b { '1' } else { '0' })
    .collect()
}

/// Parses the ten-bit `PassConfig` encoding.
pub fn passes_from_bits(bits: &str) -> Result<PassConfig, ProtoError> {
    let b: Vec<bool> = bits
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            _ => err(format!("bad pass bit `{c}`")),
        })
        .collect::<Result<_, _>>()?;
    if b.len() != 10 {
        return err(format!("expected 10 pass bits, got {}", b.len()));
    }
    Ok(PassConfig {
        mem2reg: b[0],
        constprop: b[1],
        cse: b[2],
        dce: b[3],
        tunnel: b[4],
        strength: b[5],
        schedule: b[6],
        sda: b[7],
        full_palette: b[8],
        validators: b[9],
    })
}

/// The 24 `u32` fields of a machine model, in `machine_digest` order.
fn machine_fields(m: &MachineConfig) -> [u32; 24] {
    [
        m.icache.size_bytes,
        m.icache.ways,
        m.icache.line_bytes,
        m.dcache.size_bytes,
        m.dcache.ways,
        m.dcache.line_bytes,
        m.mem_latency,
        m.fetch_latency,
        m.io_latency,
        m.text_base,
        m.data_base,
        m.stack_top,
        m.io_base,
        m.io_size,
        m.lat_int,
        m.lat_mul,
        m.lat_div,
        m.lat_fp,
        m.lat_fmadd,
        m.lat_fdiv,
        m.lat_fmove,
        m.lat_conv,
        m.lat_load,
        m.branch_penalty,
    ]
}

/// `MachineConfig` as 24 space-separated `u32`s in `machine_digest` order.
#[must_use]
pub fn machine_to_fields(m: &MachineConfig) -> String {
    machine_fields(m)
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parses the 24-field machine encoding.
pub fn machine_from_fields(text: &str) -> Result<MachineConfig, ProtoError> {
    let f: Vec<u32> = text
        .split(' ')
        .map(|w| {
            w.parse()
                .map_err(|_| ProtoError(format!("bad machine field `{w}`")))
        })
        .collect::<Result<_, _>>()?;
    if f.len() != 24 {
        return err(format!("expected 24 machine fields, got {}", f.len()));
    }
    Ok(MachineConfig {
        icache: CacheConfig {
            size_bytes: f[0],
            ways: f[1],
            line_bytes: f[2],
        },
        dcache: CacheConfig {
            size_bytes: f[3],
            ways: f[4],
            line_bytes: f[5],
        },
        mem_latency: f[6],
        fetch_latency: f[7],
        io_latency: f[8],
        text_base: f[9],
        data_base: f[10],
        stack_top: f[11],
        io_base: f[12],
        io_size: f[13],
        lat_int: f[14],
        lat_mul: f[15],
        lat_div: f[16],
        lat_fp: f[17],
        lat_fmadd: f[18],
        lat_fdiv: f[19],
        lat_fmove: f[20],
        lat_conv: f[21],
        lat_load: f[22],
        branch_penalty: f[23],
    })
}

// ---------------------------------------------------------------------------
// requests
// ---------------------------------------------------------------------------

/// One unit of a wire sweep: identity (name, entry, canonical-source
/// digest) plus, when the server `need`ed it, the canonical body itself.
#[derive(Debug, Clone)]
pub struct WireUnit {
    /// Axis label of the unit.
    pub name: String,
    /// Entry-point function.
    pub entry: String,
    /// [`source_digest`] of the canonical pretty-printed source.
    pub digest: Digest,
    /// The canonical source body — `Some` exactly when uploaded.
    pub body: Option<Arc<String>>,
}

/// The wire form of a sweep request: units by digest (bodies attached
/// only where negotiated), explicit config and machine axes.
#[derive(Debug, Clone)]
pub struct WireSweep {
    /// Unit axis, in request order.
    pub units: Vec<WireUnit>,
    /// Config axis (label, passes).
    pub configs: Vec<(String, PassConfig)>,
    /// Machine axis (label, machine).
    pub machines: Vec<(String, MachineConfig)>,
    /// Client-chosen trace id (0 = untraced). A traced sweep's response
    /// carries the server-side spans of exactly this request, each
    /// tagged `trace=<id>` — how `compile_fleet --connect --trace`
    /// correlates the two processes' timelines.
    pub trace: u64,
}

impl WireSweep {
    /// Projects a (normalized) [`SweepSpec`] to its wire form, attaching
    /// a body to every unit `upload` selects — the client passes the
    /// server's `need` answer here.
    #[must_use]
    pub fn from_spec(spec: &SweepSpec, upload: impl Fn(Digest) -> bool) -> WireSweep {
        WireSweep {
            units: spec
                .units()
                .iter()
                .map(|u| {
                    let digest = u.source_digest();
                    WireUnit {
                        name: u.name.clone(),
                        entry: u.entry.clone(),
                        digest,
                        body: upload(digest).then(|| Arc::clone(u.canonical())),
                    }
                })
                .collect(),
            configs: spec.configs().to_vec(),
            machines: spec.machines().to_vec(),
            trace: 0,
        }
    }

    /// Tags the sweep with a trace id (builder-style).
    #[must_use]
    pub fn with_trace(mut self, trace: u64) -> WireSweep {
        self.trace = trace;
        self
    }
}

/// One client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile a sweep matrix. Axes must be explicit (use
    /// [`normalize_spec`] client-side so wire specs carry the same labels
    /// a solo `run_sweep` would default to).
    Sweep(WireSweep),
    /// Digest negotiation: which of these canonical-source digests does
    /// the server still need bodies for?
    Have(Vec<Digest>),
    /// Fetch a [`ServerStats`] snapshot.
    Stats,
    /// Fetch the server's metrics registry as JSON (proto 2.1).
    Metrics,
    /// Fetch the server's flight-recorder ring as JSON (proto 2.1).
    RecorderDump,
    /// Drain and stop the server.
    Shutdown,
}

/// Makes a spec's implicit axes explicit with **the same defaults
/// `Pipeline::run_sweep` applies**: an empty config axis becomes the
/// single `verified` preset, an empty machine axis becomes `machine`
/// under the label `default`. Sending a normalized spec guarantees the
/// response's labels — and therefore its digest — match a solo run.
#[must_use]
pub fn normalize_spec(spec: &SweepSpec, machine: &MachineConfig) -> SweepSpec {
    let mut out = SweepSpec::new();
    for unit in spec.units() {
        out = out.unit(unit.clone());
    }
    if spec.configs().is_empty() {
        out = out.level(OptLevel::Verified);
    } else {
        for (label, passes) in spec.configs() {
            out = out.config(label, passes);
        }
    }
    if spec.machines().is_empty() {
        out = out.machine("default", machine);
    } else {
        for (label, m) in spec.machines() {
            out = out.machine(label, m);
        }
    }
    out
}

/// Serializes a request document.
///
/// # Errors
///
/// [`ProtoError`] when a sweep has empty config/machine axes (normalize
/// first) or a name/label is empty or contains whitespace.
pub fn encode_request(request: &Request) -> Result<String, ProtoError> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{REQUEST_HEADER}");
    match request {
        Request::Stats => s.push_str("stats\n"),
        Request::Metrics => s.push_str("metrics\n"),
        Request::RecorderDump => s.push_str("recorder-dump\n"),
        Request::Shutdown => s.push_str("shutdown\n"),
        Request::Have(digests) => {
            let _ = writeln!(s, "have {}", digests.len());
            for d in digests {
                let _ = writeln!(s, "digest {d}");
            }
        }
        Request::Sweep(sweep) => {
            if sweep.configs.is_empty() || sweep.machines.is_empty() {
                return err("sweep request must have explicit config and machine axes");
            }
            s.push_str("sweep\n");
            if sweep.trace != 0 {
                let _ = writeln!(s, "trace {:016x}", sweep.trace);
            }
            for unit in &sweep.units {
                check_word("unit name", &unit.name)?;
                check_word("entry", &unit.entry)?;
                match &unit.body {
                    None => {
                        let _ =
                            writeln!(s, "unit-ref {} {} {}", unit.entry, unit.digest, unit.name);
                    }
                    Some(body) => {
                        let _ = writeln!(s, "unit {} {} {}", unit.entry, unit.digest, unit.name);
                        let _ = writeln!(s, "blob {}", body.len());
                        s.push_str(body);
                        s.push('\n');
                    }
                }
            }
            for (label, passes) in &sweep.configs {
                check_word("config label", label)?;
                let _ = writeln!(s, "config {} {}", label, passes_to_bits(passes));
            }
            for (label, machine) in &sweep.machines {
                check_word("machine label", label)?;
                let _ = writeln!(s, "machine {} {}", label, machine_to_fields(machine));
            }
        }
    }
    s.push_str("end\n");
    Ok(s)
}

/// Parses the `entry digest name` operands shared by `unit` and
/// `unit-ref` lines.
fn unit_operands(rest: &str) -> Result<(String, Digest, String), ProtoError> {
    let mut it = rest.splitn(3, ' ');
    let entry = it.next().unwrap_or("");
    let digest = it
        .next()
        .and_then(Digest::from_hex)
        .ok_or_else(|| ProtoError("bad unit digest".into()))?;
    let name = it.next().unwrap_or("");
    check_word("unit name", name)?;
    check_word("entry", entry)?;
    Ok((entry.to_owned(), digest, name.to_owned()))
}

/// Parses `n` `digest hex32` lines followed by `end`.
fn decode_digest_list(cursor: &mut Cursor<'_>, n: usize) -> Result<Vec<Digest>, ProtoError> {
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let line = cursor
            .line()
            .ok_or_else(|| ProtoError("digest list truncated".into()))?;
        let hex = line
            .strip_prefix("digest ")
            .ok_or_else(|| ProtoError(format!("bad digest line `{line}`")))?;
        out.push(Digest::from_hex(hex).ok_or_else(|| ProtoError(format!("bad digest `{hex}`")))?);
    }
    match cursor.line() {
        Some("end") => Ok(out),
        _ => err("digest list not terminated by `end`"),
    }
}

/// Parses a request document (header through `end`).
///
/// # Errors
///
/// [`ProtoError`] on any malformation — including an uploaded body whose
/// content does not hash to its declared digest (which would otherwise
/// poison the digest-addressed parse cache); the server maps every such
/// error to an `error` response, never a crash.
pub fn decode_request(text: &str) -> Result<Request, ProtoError> {
    let mut cursor = Cursor::new(text);
    check_header(cursor.line(), REQUEST_WORD)?;
    let first = match cursor.line() {
        Some(l) => l,
        None => return err("request lacks a body"),
    };
    let (tag, rest) = first.split_once(' ').unwrap_or((first, ""));
    let body = match (tag, rest) {
        ("stats", "") => Request::Stats,
        ("metrics", "") => Request::Metrics,
        ("recorder-dump", "") => Request::RecorderDump,
        ("shutdown", "") => Request::Shutdown,
        ("have", n) => {
            let n: usize = n
                .parse()
                .map_err(|_| ProtoError(format!("bad have count `{n}`")))?;
            return Ok(Request::Have(decode_digest_list(&mut cursor, n)?));
        }
        ("sweep", "") => {
            let mut units = Vec::new();
            let mut configs = Vec::new();
            let mut machines = Vec::new();
            let mut trace = 0u64;
            loop {
                let line = match cursor.line() {
                    Some(l) => l,
                    None => return err("request truncated before `end`"),
                };
                let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
                match tag {
                    "trace" => {
                        trace = u64::from_str_radix(rest, 16)
                            .map_err(|_| ProtoError(format!("bad trace id `{rest}`")))?;
                    }
                    "unit-ref" => {
                        let (entry, digest, name) = unit_operands(rest)?;
                        units.push(WireUnit {
                            name,
                            entry,
                            digest,
                            body: None,
                        });
                    }
                    "unit" => {
                        let (entry, digest, name) = unit_operands(rest)?;
                        let nbytes = blob_line(cursor.line())?;
                        let body = cursor.blob(nbytes)?;
                        if source_digest(body) != digest {
                            return err(format!(
                                "unit `{name}` body does not hash to its declared digest"
                            ));
                        }
                        units.push(WireUnit {
                            name,
                            entry,
                            digest,
                            body: Some(Arc::new(body.to_owned())),
                        });
                    }
                    "config" => {
                        let (label, bits) = rest
                            .split_once(' ')
                            .ok_or_else(|| ProtoError("bad config line".into()))?;
                        check_word("config label", label)?;
                        configs.push((label.to_owned(), passes_from_bits(bits)?));
                    }
                    "machine" => {
                        let (label, fields) = rest
                            .split_once(' ')
                            .ok_or_else(|| ProtoError("bad machine line".into()))?;
                        check_word("machine label", label)?;
                        machines.push((label.to_owned(), machine_from_fields(fields)?));
                    }
                    "end" => break,
                    _ => return err(format!("unknown request tag `{tag}`")),
                }
            }
            if configs.is_empty() || machines.is_empty() {
                return err("sweep request lacks config or machine axis");
            }
            return Ok(Request::Sweep(WireSweep {
                units,
                configs,
                machines,
                trace,
            }));
        }
        _ => return err(format!("unknown request kind `{first}`")),
    };
    match cursor.line() {
        Some("end") => Ok(body),
        _ => err("request not terminated by `end`"),
    }
}

// ---------------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------------

/// One cell of a sweep response — the response-side projection of a
/// `SweepCell`: labels, the WCET bound, cache provenance, the validator
/// verdict, and the full output digest (everything the determinism gates
/// compare, without shipping the binary back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSummary {
    /// Unit-axis label.
    pub unit: String,
    /// Config-axis label.
    pub config: String,
    /// Machine-axis label.
    pub machine: String,
    /// The cell's WCET bound, in cycles.
    pub wcet: u64,
    /// Whether the artifact was served from the warm store.
    pub cached: bool,
    /// The translation-validation verdict the artifact carries.
    pub verdict: Verdict,
    /// [`Artifact::output_digest`](crate::store::Artifact::output_digest).
    pub output_digest: Digest,
}

/// The digest of a cell sequence, **bit-compatible with
/// [`SweepResult::digest`]**: cells in flattening order, each hashed as
/// (labels, output-digest halves). Client and server both recompute it;
/// the determinism gates compare it against solo runs.
#[must_use]
pub fn cells_digest(cells: &[CellSummary]) -> Digest {
    let mut h = Hasher::new();
    for cell in cells {
        h.str(&cell.unit).str(&cell.config).str(&cell.machine);
        h.u64(cell.output_digest.0 as u64)
            .u64((cell.output_digest.0 >> 64) as u64);
    }
    h.finish()
}

/// A served sweep: axis labels, cells in flattening order, the request's
/// share of pipeline stats, and the digest.
#[derive(Debug, Clone)]
pub struct SweepResponse {
    /// Unit-axis labels, in request order.
    pub units: Vec<String>,
    /// Config-axis labels, in request order.
    pub configs: Vec<String>,
    /// Machine-axis labels, in request order.
    pub machines: Vec<String>,
    /// Cells in flattening order (unit-major, config, machine).
    pub cells: Vec<CellSummary>,
    /// This request's stats (cache hits count per-request, so a shared
    /// cell shows as a hit for every requester after the first).
    pub stats: PipelineStats,
    /// Server-side spans of this request (traced sweeps only, proto
    /// 2.1): stage/pass spans re-projected to the request's own cell
    /// indices, timestamps on the **server's** batch timeline. Not part
    /// of [`cells_digest`] — spans are timing, the digest is work.
    pub spans: Vec<Span>,
    /// [`cells_digest`] as the server computed it. [`verify`](SweepResponse::verify)
    /// recomputes client-side.
    pub digest: Digest,
}

impl SweepResponse {
    /// Projects a complete solo [`SweepResult`] to its wire form — the
    /// reference the determinism gates compare daemon responses against.
    #[must_use]
    pub fn from_result(result: &SweepResult) -> SweepResponse {
        let cells: Vec<CellSummary> = result
            .cells()
            .iter()
            .map(|c| CellSummary {
                unit: c.unit.clone(),
                config: c.config.clone(),
                machine: c.machine.clone(),
                wcet: c.wcet(),
                cached: c.outcome.cached,
                verdict: c.outcome.artifact.verdict,
                output_digest: c.outcome.artifact.output_digest(),
            })
            .collect();
        let digest = cells_digest(&cells);
        debug_assert_eq!(digest, result.digest());
        SweepResponse {
            units: result.unit_labels().to_vec(),
            configs: result.config_labels().to_vec(),
            machines: result.machine_labels().to_vec(),
            cells,
            stats: result.stats,
            spans: Vec::new(),
            digest,
        }
    }

    /// Recomputes the digest from the cells and checks it against the
    /// transmitted one.
    #[must_use]
    pub fn verify(&self) -> bool {
        cells_digest(&self.cells) == self.digest
    }

    /// The cell at labeled coordinates (first occurrence per axis, the
    /// same contract as [`SweepResult::get`]): each label resolves to its
    /// axis position, which indexes the unit-major cell layout directly.
    /// A cell whose own labels disagree with the axes is not returned.
    #[must_use]
    pub fn get(&self, unit: &str, config: &str, machine: &str) -> Option<&CellSummary> {
        let position = |axis: &[String], label: &str| axis.iter().position(|l| l == label);
        let u = position(&self.units, unit)?;
        let c = position(&self.configs, config)?;
        let m = position(&self.machines, machine)?;
        self.cells
            .get((u * self.configs.len() + c) * self.machines.len() + m)
            .filter(|cell| cell.unit == unit && cell.config == config && cell.machine == machine)
    }
}

/// Server-side aggregate metrics, served to `stats` requests: a view
/// the server derives from its metrics registry at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sweep requests served (stats/shutdown requests not counted).
    pub requests: u64,
    /// Batches executed (one `run_sweep` each).
    pub batches: u64,
    /// Cells across all batches, after cross-request dedup.
    pub batched_cells: u64,
    /// Cells compiled fresh.
    pub jobs_run: u64,
    /// Cells served from the warm store.
    pub jobs_cached: u64,
    /// Store entries evicted over the server's lifetime.
    pub evictions: u64,
    /// Store entries resident at snapshot time.
    pub resident: u64,
    /// Store resident bytes at snapshot time.
    pub store_bytes: u64,
    /// Store shard count.
    pub shards: u64,
    /// Requests queued at snapshot time.
    pub queue_depth: u64,
    /// Peak queued requests observed.
    pub queue_peak: u64,
    /// Batches deferred by admission control (queue head would have
    /// exceeded the in-flight cell bound while a batch ran).
    pub deferred: u64,
    /// Summed compile-stage nanos across batches.
    pub compile_ns: u64,
    /// Summed analyze-stage nanos across batches.
    pub analyze_ns: u64,
    /// Summed store-stage nanos across batches.
    pub store_ns: u64,
    /// Summed batch wall-clock nanos.
    pub wall_ns: u64,
    /// Configured hit-rate SLO in thousandths (`900` = 0.900); `0` means
    /// no SLO configured.
    pub slo_per_mille: u64,
    /// Request bytes received off the wire (all frames, all connections).
    pub bytes_rx: u64,
    /// Response bytes written to the wire.
    pub bytes_tx: u64,
    /// Unit digests offered through `have` negotiation.
    pub units_offered: u64,
    /// Unit bodies actually uploaded in sweep requests.
    pub units_uploaded: u64,
    /// Sweep units resolved from the parse cache without parsing.
    pub parse_hits: u64,
    /// Sweep units that had to be parsed (first sighting of a digest).
    pub parse_misses: u64,
    /// Parse-cache entries evicted over the server's lifetime.
    pub parse_evictions: u64,
    /// Parse-cache entries resident at snapshot time.
    pub parse_resident: u64,
    /// Parse-cache resident bytes (canonical text) at snapshot time.
    pub parse_bytes: u64,
    /// p50 per-request wall latency (ns) from the server's histogram.
    pub request_p50_ns: u64,
    /// p99 per-request wall latency (ns) from the server's histogram.
    pub request_p99_ns: u64,
    /// Configured p99 latency SLO in ns; `0` means none configured.
    pub slo_p99_ns: u64,
    /// The server's [`PROTO_MINOR`] capability level.
    pub proto_minor: u64,
}

impl ServerStats {
    /// Lifetime cache hit rate over batched cells; `0.0` before any cell.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.jobs_run + self.jobs_cached;
        if total == 0 {
            0.0
        } else {
            self.jobs_cached as f64 / total as f64
        }
    }

    /// Lifetime parse-cache hit rate over resolved sweep units; `0.0`
    /// before any unit.
    #[must_use]
    pub fn parse_hit_rate(&self) -> f64 {
        let total = self.parse_hits + self.parse_misses;
        if total == 0 {
            0.0
        } else {
            self.parse_hits as f64 / total as f64
        }
    }

    /// Whether the lifetime hit rate meets the configured SLO (vacuously
    /// true without one).
    #[must_use]
    pub fn slo_met(&self) -> bool {
        let hit_ok =
            self.slo_per_mille == 0 || self.hit_rate() * 1000.0 >= self.slo_per_mille as f64;
        let p99_ok = self.slo_p99_ns == 0 || self.request_p99_ns <= self.slo_p99_ns;
        hit_ok && p99_ok
    }

    /// Greppable text rendering — `server:`-prefixed lines, the SLO
    /// verdict last.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "server: requests {} batches {} cells {} queue {} (peak {}) deferred {}",
            self.requests,
            self.batches,
            self.batched_cells,
            self.queue_depth,
            self.queue_peak,
            self.deferred,
        );
        let _ = writeln!(
            s,
            "server: store resident {} bytes {} shards {} evictions {}",
            self.resident, self.store_bytes, self.shards, self.evictions,
        );
        let _ = writeln!(
            s,
            "server: wire rx {} tx {} offered {} uploaded {}",
            self.bytes_rx, self.bytes_tx, self.units_offered, self.units_uploaded,
        );
        let _ = writeln!(
            s,
            "server: parse-cache hits {} misses {} evictions {} resident {} bytes {} hit-rate {:.3}",
            self.parse_hits,
            self.parse_misses,
            self.parse_evictions,
            self.parse_resident,
            self.parse_bytes,
            self.parse_hit_rate(),
        );
        let _ = writeln!(
            s,
            "server: jobs run {} cached {} hit-rate {:.3}",
            self.jobs_run,
            self.jobs_cached,
            self.hit_rate(),
        );
        let _ = writeln!(
            s,
            "server: stage compile {}ns analyze {}ns store {}ns wall {}ns",
            self.compile_ns, self.analyze_ns, self.store_ns, self.wall_ns,
        );
        let _ = writeln!(
            s,
            "server: latency request p50 {}ns p99 {}ns proto {}.{}",
            self.request_p50_ns, self.request_p99_ns, PROTO_VERSION, self.proto_minor,
        );
        if self.slo_p99_ns > 0 {
            let _ = writeln!(
                s,
                "server: p99 SLO {}ns: {} (p99 {}ns)",
                self.slo_p99_ns,
                if self.request_p99_ns <= self.slo_p99_ns {
                    "met"
                } else {
                    "MISSED"
                },
                self.request_p99_ns,
            );
        }
        if self.slo_per_mille > 0 {
            let _ = writeln!(
                s,
                "server: hit-rate SLO {:.3}: {} (store {:.3} parse {:.3})",
                self.slo_per_mille as f64 / 1000.0,
                if self.slo_met() { "met" } else { "MISSED" },
                self.hit_rate(),
                self.parse_hit_rate(),
            );
        }
        s
    }
}

/// Where the server reads a [`ServerStats`] field from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatSource {
    /// The registry counter of the same name.
    Counter,
    /// The registry gauge of the same name.
    Gauge,
    /// The `sum` of the registry histogram of the same name: a timing or
    /// byte total, which the registry keeps out of its counters.
    HistSum,
    /// Read at snapshot time: live store state, queue depth, latency
    /// quantiles and configuration.
    Live,
}

/// A mutable accessor of one [`ServerStats`] field.
type StatField = fn(&mut ServerStats) -> &mut u64;

/// The one name ↔ field table of [`ServerStats`], in wire order. The
/// `stats` encoder and decoder both walk it, and the server fills every
/// non-[`Live`](StatSource::Live) field from the registry entry of the
/// same name.
pub(crate) const STATS_FIELDS: [(&str, StatSource, StatField); 30] = {
    use StatSource::{Counter, Gauge, HistSum, Live};
    [
        ("requests", Counter, |s| &mut s.requests),
        ("batches", Counter, |s| &mut s.batches),
        ("batched_cells", Counter, |s| &mut s.batched_cells),
        ("jobs_run", Counter, |s| &mut s.jobs_run),
        ("jobs_cached", Counter, |s| &mut s.jobs_cached),
        ("evictions", Counter, |s| &mut s.evictions),
        ("resident", Live, |s| &mut s.resident),
        ("store_bytes", Live, |s| &mut s.store_bytes),
        ("shards", Live, |s| &mut s.shards),
        ("queue_depth", Live, |s| &mut s.queue_depth),
        ("queue_peak", Gauge, |s| &mut s.queue_peak),
        ("deferred", Counter, |s| &mut s.deferred),
        ("compile_ns", HistSum, |s| &mut s.compile_ns),
        ("analyze_ns", HistSum, |s| &mut s.analyze_ns),
        ("store_ns", HistSum, |s| &mut s.store_ns),
        ("wall_ns", HistSum, |s| &mut s.wall_ns),
        ("slo_per_mille", Live, |s| &mut s.slo_per_mille),
        ("bytes_rx", HistSum, |s| &mut s.bytes_rx),
        ("bytes_tx", HistSum, |s| &mut s.bytes_tx),
        ("units_offered", Counter, |s| &mut s.units_offered),
        ("units_uploaded", Counter, |s| &mut s.units_uploaded),
        ("parse_hits", Counter, |s| &mut s.parse_hits),
        ("parse_misses", Counter, |s| &mut s.parse_misses),
        ("parse_evictions", Counter, |s| &mut s.parse_evictions),
        ("parse_resident", Live, |s| &mut s.parse_resident),
        ("parse_bytes", Live, |s| &mut s.parse_bytes),
        ("request_p50_ns", Live, |s| &mut s.request_p50_ns),
        ("request_p99_ns", Live, |s| &mut s.request_p99_ns),
        ("slo_p99_ns", Live, |s| &mut s.slo_p99_ns),
        ("proto_minor", Live, |s| &mut s.proto_minor),
    ]
};

/// One server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// A served sweep.
    Sweep(SweepResponse),
    /// The subset of a `have` offer the server needs bodies for.
    Need(Vec<Digest>),
    /// A stats snapshot.
    Stats(ServerStats),
    /// The metrics registry as one JSON object (proto 2.1).
    Metrics(String),
    /// The flight-recorder ring as one JSON object (proto 2.1).
    Recorder(String),
    /// Acknowledgement (shutdown).
    Ok,
    /// The request was understood as a frame but rejected (parse error,
    /// pipeline error). The connection stays usable.
    Error(String),
}

/// The line-oriented sweep payload carried inside the response blob.
fn encode_sweep_payload(sweep: &SweepResponse) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "axes {} {} {}",
        sweep.units.len(),
        sweep.configs.len(),
        sweep.machines.len()
    );
    for u in &sweep.units {
        let _ = writeln!(s, "axis-unit {u}");
    }
    for c in &sweep.configs {
        let _ = writeln!(s, "axis-config {c}");
    }
    for m in &sweep.machines {
        let _ = writeln!(s, "axis-machine {m}");
    }
    for cell in &sweep.cells {
        let _ = writeln!(
            s,
            "cell {} {} {} {} {} {}{}{} {}",
            cell.unit,
            cell.config,
            cell.machine,
            cell.wcet,
            u8::from(cell.cached),
            u8::from(cell.verdict.allocation_checked),
            u8::from(cell.verdict.tunnel_validated),
            u8::from(cell.verdict.schedule_validated),
            cell.output_digest,
        );
    }
    for span in &sweep.spans {
        let _ = write!(
            s,
            "span {} {} {} {} {}",
            span.kind.cat(),
            span.job,
            span.ts_ns,
            span.dur_ns,
            span.name,
        );
        if !span.detail.is_empty() {
            let _ = write!(s, " {}", span.detail.replace('\n', " "));
        }
        s.push('\n');
    }
    let st = &sweep.stats;
    let _ = writeln!(
        s,
        "stats {} {} {} {} {} {}",
        st.jobs_run, st.jobs_cached, st.compile_ns, st.analyze_ns, st.store_ns, st.wall_ns,
    );
    let _ = write!(s, "digest {}", sweep.digest);
    s
}

/// Serializes a response document.
#[must_use]
pub fn encode_response(response: &Response) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{RESPONSE_HEADER}");
    match response {
        Response::Ok => s.push_str("ok\n"),
        Response::Error(msg) => {
            let one_line = msg.replace('\n', " ");
            let _ = writeln!(s, "error {one_line}");
        }
        Response::Need(digests) => {
            let _ = writeln!(s, "need {}", digests.len());
            for d in digests {
                let _ = writeln!(s, "digest {d}");
            }
        }
        Response::Stats(stats) => {
            s.push_str("server-stats\n");
            let mut stats = stats.clone();
            for (name, _, field) in STATS_FIELDS {
                let _ = writeln!(s, "{name} {}", field(&mut stats));
            }
        }
        Response::Sweep(sweep) => {
            let payload = encode_sweep_payload(sweep);
            s.push_str("sweep\n");
            let _ = writeln!(s, "blob {}", payload.len());
            s.push_str(&payload);
            s.push('\n');
        }
        Response::Metrics(json) => {
            s.push_str("metrics\n");
            let _ = writeln!(s, "blob {}", json.len());
            s.push_str(json);
            s.push('\n');
        }
        Response::Recorder(json) => {
            s.push_str("recorder\n");
            let _ = writeln!(s, "blob {}", json.len());
            s.push_str(json);
            s.push('\n');
        }
    }
    s.push_str("end\n");
    s
}

/// Parses the sweep payload (the blob's contents).
fn decode_sweep_payload(payload: &str) -> Result<SweepResponse, ProtoError> {
    let mut lines = payload.lines();
    let first = lines
        .next()
        .ok_or_else(|| ProtoError("empty sweep payload".into()))?;
    let counts = first
        .strip_prefix("axes ")
        .ok_or_else(|| ProtoError(format!("bad axes line `{first}`")))?;
    let mut it = counts.split(' ');
    let mut count = || -> Result<usize, ProtoError> {
        it.next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| ProtoError("bad sweep axis counts".into()))
    };
    let nu = count()?;
    let nc = count()?;
    let nm = count()?;
    let mut axis = |kind: &str, n: usize| -> Result<Vec<String>, ProtoError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| ProtoError(format!("{kind} axis truncated")))?;
            let label = line
                .strip_prefix(&format!("axis-{kind} "))
                .ok_or_else(|| ProtoError(format!("bad {kind} axis line `{line}`")))?;
            check_word(&format!("{kind} label"), label)?;
            out.push(label.to_owned());
        }
        Ok(out)
    };
    let units = axis("unit", nu)?;
    let configs = axis("config", nc)?;
    let machines = axis("machine", nm)?;
    let mut cells = Vec::with_capacity(nu * nc * nm);
    let mut spans = Vec::new();
    let mut stats = PipelineStats::default();
    let mut digest = None;
    for line in lines {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "cell" => {
                let w: Vec<&str> = rest.split(' ').collect();
                if w.len() != 7 {
                    return err(format!("bad cell line `{line}`"));
                }
                let vbits: Vec<char> = w[5].chars().collect();
                if vbits.len() != 3 || vbits.iter().any(|&c| c != '0' && c != '1') {
                    return err(format!("bad verdict bits `{}`", w[5]));
                }
                cells.push(CellSummary {
                    unit: w[0].to_owned(),
                    config: w[1].to_owned(),
                    machine: w[2].to_owned(),
                    wcet: w[3]
                        .parse()
                        .map_err(|_| ProtoError(format!("bad wcet `{}`", w[3])))?,
                    cached: w[4] == "1",
                    verdict: Verdict {
                        allocation_checked: vbits[0] == '1',
                        tunnel_validated: vbits[1] == '1',
                        schedule_validated: vbits[2] == '1',
                    },
                    output_digest: Digest::from_hex(w[6])
                        .ok_or_else(|| ProtoError(format!("bad digest `{}`", w[6])))?,
                });
            }
            "span" => {
                let w: Vec<&str> = rest.splitn(5, ' ').collect();
                if w.len() != 5 {
                    return err(format!("bad span line `{line}`"));
                }
                let kind = SpanKind::from_cat(w[0])
                    .ok_or_else(|| ProtoError(format!("bad span category `{}`", w[0])))?;
                let num = |v: &str| -> Result<u64, ProtoError> {
                    v.parse()
                        .map_err(|_| ProtoError(format!("bad span number `{v}`")))
                };
                let (name, detail) = w[4].split_once(' ').unwrap_or((w[4], ""));
                check_word("span name", name)?;
                spans.push(Span {
                    name: name.to_owned(),
                    kind,
                    #[allow(clippy::cast_possible_truncation)]
                    job: num(w[1])? as u32,
                    pid: 1,
                    ts_ns: num(w[2])?,
                    dur_ns: num(w[3])?,
                    detail: detail.to_owned(),
                });
            }
            "stats" => {
                let v: Vec<u64> = rest
                    .split(' ')
                    .map(|w| {
                        w.parse()
                            .map_err(|_| ProtoError(format!("bad stats value `{w}`")))
                    })
                    .collect::<Result<_, _>>()?;
                if v.len() != 6 {
                    return err(format!("bad stats line `{line}`"));
                }
                stats.jobs_run = v[0];
                stats.jobs_cached = v[1];
                stats.compile_ns = v[2];
                stats.analyze_ns = v[3];
                stats.store_ns = v[4];
                stats.wall_ns = v[5];
            }
            "digest" => {
                digest = Some(
                    Digest::from_hex(rest)
                        .ok_or_else(|| ProtoError(format!("bad digest `{rest}`")))?,
                );
            }
            _ => return err(format!("unknown payload tag `{tag}`")),
        }
    }
    if cells.len() != nu * nc * nm {
        return err(format!(
            "expected {} cells, got {}",
            nu * nc * nm,
            cells.len()
        ));
    }
    // cells must sit in the unit-major layout of the axes, which is what
    // lets `SweepResponse::get` index instead of scan
    for (i, cell) in cells.iter().enumerate() {
        let (u, c, m) = (i / (nc * nm), i / nm % nc, i % nm);
        if cell.unit != units[u] || cell.config != configs[c] || cell.machine != machines[m] {
            return err(format!(
                "cell {i} ({} {} {}) out of the axes' unit-major order",
                cell.unit, cell.config, cell.machine
            ));
        }
    }
    let response = SweepResponse {
        units,
        configs,
        machines,
        cells,
        stats,
        spans,
        digest: digest.ok_or_else(|| ProtoError("sweep response lacks digest".into()))?,
    };
    if !response.verify() {
        return err("sweep response digest does not match its cells");
    }
    Ok(response)
}

/// Parses a response document (header through `end`).
///
/// # Errors
///
/// [`ProtoError`] on any malformation.
pub fn decode_response(text: &str) -> Result<Response, ProtoError> {
    let mut cursor = Cursor::new(text);
    check_header(cursor.line(), RESPONSE_WORD)?;
    let first = match cursor.line() {
        Some(l) => l,
        None => return err("response lacks a body"),
    };
    let (tag, rest) = first.split_once(' ').unwrap_or((first, ""));
    let body = match tag {
        "ok" => Response::Ok,
        "error" => Response::Error(rest.to_owned()),
        "need" => {
            let n: usize = rest
                .parse()
                .map_err(|_| ProtoError(format!("bad need count `{rest}`")))?;
            return Ok(Response::Need(decode_digest_list(&mut cursor, n)?));
        }
        "server-stats" => {
            let mut stats = ServerStats::default();
            loop {
                let line = match cursor.line() {
                    Some(l) => l,
                    None => return err("stats response truncated"),
                };
                if line == "end" {
                    return Ok(Response::Stats(stats));
                }
                let (name, value) = line
                    .split_once(' ')
                    .ok_or_else(|| ProtoError(format!("bad stats line `{line}`")))?;
                let value: u64 = value
                    .parse()
                    .map_err(|_| ProtoError(format!("bad stats value `{value}`")))?;
                let Some((_, _, field)) = STATS_FIELDS.iter().find(|(n, _, _)| *n == name) else {
                    return err(format!("unknown stats field `{name}`"));
                };
                *field(&mut stats) = value;
            }
        }
        "sweep" => {
            let nbytes = blob_line(cursor.line())?;
            let payload = cursor.blob(nbytes)?;
            let response = decode_sweep_payload(payload)?;
            return match cursor.line() {
                Some("end") => Ok(Response::Sweep(response)),
                _ => err("response not terminated by `end`"),
            };
        }
        "metrics" | "recorder" => {
            let nbytes = blob_line(cursor.line())?;
            let payload = cursor.blob(nbytes)?.to_owned();
            let response = if tag == "metrics" {
                Response::Metrics(payload)
            } else {
                Response::Recorder(payload)
            };
            return match cursor.line() {
                Some("end") => Ok(response),
                _ => err("response not terminated by `end`"),
            };
        }
        _ => return err(format!("unknown response kind `{tag}`")),
    };
    match cursor.line() {
        Some("end") => Ok(body),
        _ => err("response not terminated by `end`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vericomp_core::OptLevel;
    use vericomp_dataflow::fleet;
    use vericomp_minic::pretty::program_to_c;

    fn sample_spec() -> SweepSpec {
        let nodes = fleet::named_suite();
        SweepSpec::new()
            .nodes(&nodes[..2])
            .levels([OptLevel::Verified, OptLevel::OptFull])
            .machine("mpc755", &MachineConfig::mpc755())
            .machine("tiny", &MachineConfig::tiny_caches())
    }

    #[test]
    fn passes_bits_roundtrip_all_presets() {
        for level in [
            OptLevel::PatternO0,
            OptLevel::OptNoRegalloc,
            OptLevel::Verified,
            OptLevel::OptFull,
        ] {
            let p = PassConfig::for_level(level);
            let bits = passes_to_bits(&p);
            assert_eq!(bits.len(), 10);
            assert_eq!(passes_from_bits(&bits).expect("parses"), p);
        }
        assert!(passes_from_bits("11111").is_err());
        assert!(passes_from_bits("111111111x").is_err());
    }

    #[test]
    fn machine_fields_roundtrip_and_reject_malformation() {
        for m in [MachineConfig::mpc755(), MachineConfig::tiny_caches()] {
            let text = machine_to_fields(&m);
            assert_eq!(machine_from_fields(&text).expect("parses"), m);
        }
        assert!(machine_from_fields("1 2 3").is_err());
        assert!(machine_from_fields("x ".repeat(24).trim_end()).is_err());
    }

    #[test]
    fn sweep_request_roundtrips_with_identical_cache_keys() {
        let spec = sample_spec();
        // uploading everything carries every body with its digest
        let wire = WireSweep::from_spec(&spec, |_| true);
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        let Request::Sweep(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        assert_eq!(back.units.len(), spec.units().len());
        assert_eq!(back.configs, spec.configs());
        assert_eq!(back.machines, spec.machines());
        // the round-tripped bodies derive the same cache keys — the
        // property that makes the daemon's store useful to remote clients
        for (a, b) in spec.units().iter().zip(&back.units) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.entry, b.entry);
            assert_eq!(a.source_digest(), b.digest);
            let body = b.body.as_ref().expect("uploaded");
            assert_eq!(source_digest(body), b.digest);
            let verified = PassConfig::for_level(OptLevel::Verified);
            let m = MachineConfig::mpc755();
            assert_eq!(
                crate::store::artifact_key(&program_to_c(a.source()), &a.entry, &verified, &m),
                crate::store::artifact_key(body, &b.entry, &verified, &m),
                "unit `{}` changed key over the wire",
                a.name
            );
        }
    }

    #[test]
    fn unit_refs_travel_without_bodies() {
        let spec = sample_spec();
        let wire = WireSweep::from_spec(&spec, |_| false);
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        assert!(!text.contains("blob "), "unit-ref requests carry no blobs");
        let Request::Sweep(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        for (a, b) in spec.units().iter().zip(&back.units) {
            assert_eq!(a.source_digest(), b.digest);
            assert!(b.body.is_none());
        }
    }

    #[test]
    fn have_and_need_roundtrip() {
        let digests: Vec<Digest> = sample_spec()
            .units()
            .iter()
            .map(crate::sweep::SweepUnit::source_digest)
            .collect();
        let text = encode_request(&Request::Have(digests.clone())).expect("encodes");
        let Request::Have(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        assert_eq!(back, digests);
        let Response::Need(back) =
            decode_response(&encode_response(&Response::Need(digests.clone()))).expect("decodes")
        else {
            panic!("wrong response kind");
        };
        assert_eq!(back, digests);
        // empty lists survive too
        let Response::Need(empty) =
            decode_response(&encode_response(&Response::Need(Vec::new()))).expect("decodes")
        else {
            panic!("wrong response kind");
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn blob_framing_survives_end_lines_and_verifies_digests() {
        // a body containing a line reading `end` must not close the frame
        let body = "int f(void)\n{\nend\n}\n".to_owned();
        let digest = source_digest(&body);
        let wire = WireSweep {
            units: vec![WireUnit {
                name: "tricky".into(),
                entry: "f".into(),
                digest,
                body: Some(Arc::new(body.clone())),
            }],
            configs: vec![("verified".into(), PassConfig::for_level(OptLevel::Verified))],
            machines: vec![("default".into(), MachineConfig::mpc755())],
            trace: 0,
        };
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        // the frame reader consumes the blob by length, not by scanning
        let mut reader = std::io::BufReader::new(text.as_bytes());
        let frame = read_frame(&mut reader).expect("reads").expect("one frame");
        assert_eq!(frame, text.as_bytes());
        assert!(read_frame(&mut reader).expect("eof").is_none());
        let Request::Sweep(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        assert_eq!(
            back.units[0].body.as_deref().map(String::as_str),
            Some(body.as_str())
        );
        // a body that does not hash to its declared digest is rejected —
        // the parse cache is digest-addressed, so this gate is load-bearing
        let tampered = text.replace("{\nend\n}", "{\nEND\n}");
        assert!(decode_request(&tampered).is_err());
    }

    #[test]
    fn version_mismatch_is_a_clean_versioned_error() {
        let v1 = "vericomp-request 1\nstats\nend\n";
        let e = decode_request(v1).expect_err("v1 header must be rejected");
        assert!(
            e.0.contains("version 1") && e.0.contains("vericomp-request 2"),
            "error must name both versions: {e}"
        );
        let e = decode_response("vericomp-response 1\nok\nend\n")
            .expect_err("v1 response header must be rejected");
        assert!(e.0.contains("version 1") && e.0.contains("vericomp-response 2"));
        let e = decode_request("vericomp-request 99\nstats\nend\n").expect_err("future version");
        assert!(e.0.contains("version 99"));
    }

    #[test]
    fn stats_shutdown_ok_and_error_roundtrip() {
        for req in [Request::Stats, Request::Shutdown] {
            let text = encode_request(&req).expect("encodes");
            let back = decode_request(&text).expect("decodes");
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&req));
        }
        let ok = decode_response(&encode_response(&Response::Ok)).expect("ok");
        assert!(matches!(ok, Response::Ok));
        let err_resp = decode_response(&encode_response(&Response::Error(
            "multi\nline message".into(),
        )))
        .expect("error");
        let Response::Error(msg) = err_resp else {
            panic!("wrong response kind");
        };
        assert_eq!(msg, "multi line message");
    }

    #[test]
    fn server_stats_roundtrip_render_and_slo() {
        let stats = ServerStats {
            requests: 7,
            batches: 3,
            batched_cells: 42,
            jobs_run: 10,
            jobs_cached: 32,
            evictions: 5,
            resident: 37,
            store_bytes: 123_456,
            shards: 4,
            queue_depth: 1,
            queue_peak: 6,
            deferred: 2,
            compile_ns: 111,
            analyze_ns: 222,
            store_ns: 333,
            wall_ns: 999,
            slo_per_mille: 700,
            bytes_rx: 4_096,
            bytes_tx: 8_192,
            units_offered: 20,
            units_uploaded: 6,
            parse_hits: 14,
            parse_misses: 6,
            parse_evictions: 1,
            parse_resident: 5,
            parse_bytes: 2_048,
            request_p50_ns: 1_000_000,
            request_p99_ns: 8_000_000,
            slo_p99_ns: 10_000_000,
            proto_minor: u64::from(PROTO_MINOR),
        };
        let back = decode_response(&encode_response(&Response::Stats(stats.clone())));
        let Response::Stats(back) = back.expect("decodes") else {
            panic!("wrong response kind");
        };
        assert_eq!(back, stats);
        assert!((stats.hit_rate() - 32.0 / 42.0).abs() < 1e-12);
        assert!((stats.parse_hit_rate() - 0.7).abs() < 1e-12);
        assert!(stats.slo_met());
        let render = stats.render();
        assert!(render.contains("hit-rate 0.762"));
        assert!(render.contains("SLO 0.700: met"));
        assert!(render.contains("wire rx 4096 tx 8192 offered 20 uploaded 6"));
        assert!(render.contains(
            "parse-cache hits 14 misses 6 evictions 1 resident 5 bytes 2048 hit-rate 0.700"
        ));
        let missed = ServerStats {
            slo_per_mille: 990,
            ..stats.clone()
        };
        assert!(!missed.slo_met());
        assert!(missed.render().contains("SLO 0.990: MISSED"));
        assert!(render.contains("latency request p50 1000000ns p99 8000000ns proto 2.1"));
        assert!(render.contains("p99 SLO 10000000ns: met (p99 8000000ns)"));
        // a breached p99 SLO flips the joint verdict even with hits fine
        let slow = ServerStats {
            request_p99_ns: 20_000_000,
            ..stats.clone()
        };
        assert!(!slow.slo_met());
        assert!(slow.render().contains("p99 SLO 10000000ns: MISSED"));
    }

    #[test]
    fn sweep_response_roundtrips_through_the_blob() {
        let spec = SweepSpec::new()
            .nodes(&fleet::named_suite()[..2])
            .level(OptLevel::Verified);
        let spec = normalize_spec(&spec, &MachineConfig::mpc755());
        let result = crate::service::Pipeline::in_memory()
            .run_sweep(&spec)
            .expect("solo");
        let response = SweepResponse::from_result(&result);
        let text = encode_response(&Response::Sweep(response.clone()));
        let Response::Sweep(back) = decode_response(&text).expect("decodes") else {
            panic!("wrong response kind");
        };
        assert_eq!(back.digest, response.digest);
        assert_eq!(back.cells, response.cells);
        assert_eq!(back.units, response.units);
        assert!(back.verify());
    }

    #[test]
    fn response_get_indexes_like_sweep_result_get() {
        // duplicated labels on the config and machine axes: lookups must
        // resolve to the first occurrence, exactly as the solo result does
        let nodes = fleet::named_suite();
        let spec = SweepSpec::new()
            .nodes(&nodes[..3])
            .level(OptLevel::Verified)
            .config("hot", &PassConfig::for_level(OptLevel::PatternO0))
            .config("hot", &PassConfig::for_level(OptLevel::OptFull))
            .machine("m", &MachineConfig::mpc755())
            .machine("m", &MachineConfig::tiny_caches());
        let result = crate::service::Pipeline::in_memory()
            .run_sweep(&spec)
            .expect("solo");
        let response = SweepResponse::from_result(&result);
        let mut units: Vec<&str> = nodes[..3].iter().map(|n| n.name()).collect();
        units.push("no_such_unit");
        for unit in units {
            for config in ["verified", "hot", "no-such-config"] {
                for machine in ["m", "no-such-machine"] {
                    let solo = result.get(unit, config, machine);
                    let served = response.get(unit, config, machine);
                    assert_eq!(
                        solo.is_some(),
                        served.is_some(),
                        "{unit}/{config}/{machine}"
                    );
                    if let (Some(solo), Some(served)) = (solo, served) {
                        assert_eq!(served.wcet, solo.wcet());
                        assert_eq!(served.output_digest, solo.outcome.artifact.output_digest());
                        assert_eq!(
                            (served.unit.as_str(), served.config.as_str()),
                            (unit, config)
                        );
                    }
                }
            }
        }
        // first occurrence: the pattern-O0 column on the mpc755 machine
        let first = response.get(nodes[0].name(), "hot", "m").expect("cell");
        assert_eq!(*first, response.cells[2]);

        // a cell whose labels disagree with the axes is never returned
        let mut skewed = response.clone();
        skewed.cells[0].unit = "elsewhere".into();
        assert!(skewed.get(nodes[0].name(), "verified", "m").is_none());
    }

    #[test]
    fn decode_rejects_cells_out_of_axis_order() {
        let spec = normalize_spec(
            &SweepSpec::new()
                .nodes(&fleet::named_suite()[..2])
                .level(OptLevel::Verified),
            &MachineConfig::mpc755(),
        );
        let result = crate::service::Pipeline::in_memory()
            .run_sweep(&spec)
            .expect("solo");
        let mut response = SweepResponse::from_result(&result);
        response.cells.swap(0, 1);
        // the digest still matches the (swapped) cells, so only the
        // layout check can catch it
        response.digest = cells_digest(&response.cells);
        let text = encode_response(&Response::Sweep(response));
        let error = decode_response(&text).expect_err("out-of-order cells");
        assert!(error.0.contains("unit-major order"), "{error}");
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        assert!(decode_request("").is_err());
        assert!(decode_request("vericomp-request 99\nstats\nend\n").is_err());
        assert!(decode_request("vericomp-request 2\nstats\n").is_err()); // no end
        assert!(decode_request("vericomp-request 2\nsweep\nunit f 0 n\nend\n").is_err());
        // blob length lies: runs past the frame
        assert!(decode_request(
            "vericomp-request 2\nsweep\nunit f 00000000000000000000000000000000 n\nblob 999\nint\nend\n"
        )
        .is_err());
        // blob length splitting a UTF-8 boundary must not panic
        let mut doc = String::from("vericomp-request 2\nsweep\nunit f ");
        doc.push_str(&format!("{}", source_digest("é")));
        doc.push_str(" n\nblob 1\né\nend\n");
        assert!(decode_request(&doc).is_err());
        assert!(decode_response("vericomp-response 2\nsweep\nblob 4\nxyzw\nend\n").is_err());
        assert!(decode_response("vericomp-response 2\nneed 3\ndigest zz\nend\n").is_err());
        // whitespace in labels rejected at encode time
        let spec = SweepSpec::new()
            .level(OptLevel::Verified)
            .machine("two words", &MachineConfig::mpc755());
        let wire = WireSweep::from_spec(&spec, |_| true);
        assert!(encode_request(&Request::Sweep(wire)).is_err());
    }

    #[test]
    fn read_frame_reports_truncation_and_oversized_blobs() {
        use std::io::BufReader;
        // clean EOF at a boundary
        let mut r = BufReader::new(&b""[..]);
        assert!(read_frame(&mut r).expect("clean").is_none());
        // EOF mid-frame
        let mut r = BufReader::new(&b"vericomp-request 2\nstats\n"[..]);
        assert!(read_frame(&mut r).is_err());
        // EOF mid-blob
        let mut r = BufReader::new(&b"vericomp-request 2\nsweep\nblob 100\nshort"[..]);
        assert!(read_frame(&mut r).is_err());
        // oversized blob declaration rejected before allocation
        let doc = format!("vericomp-request 2\nsweep\nblob {}\n", MAX_BLOB_BYTES + 1);
        let mut r = BufReader::new(doc.as_bytes());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn normalize_matches_run_sweep_defaults() {
        let m = MachineConfig::mpc755();
        let spec = SweepSpec::new();
        let n = normalize_spec(&spec, &m);
        assert_eq!(n.configs().len(), 1);
        assert_eq!(n.configs()[0].0, "verified");
        assert_eq!(n.configs()[0].1, PassConfig::for_level(OptLevel::Verified));
        assert_eq!(n.machines().len(), 1);
        assert_eq!(n.machines()[0].0, "default");
        assert_eq!(n.machines()[0].1, m);
        // explicit axes pass through untouched
        let spec = sample_spec();
        let n = normalize_spec(&spec, &m);
        assert_eq!(n.configs(), spec.configs());
        assert_eq!(n.machines(), spec.machines());
    }

    #[test]
    fn trace_id_and_admin_requests_roundtrip() {
        let spec = sample_spec();
        let wire = WireSweep::from_spec(&spec, |_| false).with_trace(0x00ab_cdef_0123_4567);
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        assert!(text.contains("trace 00abcdef01234567\n"));
        let Request::Sweep(back) = decode_request(&text).expect("decodes") else {
            panic!("wrong request kind");
        };
        assert_eq!(back.trace, 0x00ab_cdef_0123_4567);
        // untraced sweeps carry no trace line at all
        let wire = WireSweep::from_spec(&spec, |_| false);
        let text = encode_request(&Request::Sweep(wire)).expect("encodes");
        assert!(!text.contains("trace "));
        // admin requests
        for (req, word) in [
            (Request::Metrics, "metrics"),
            (Request::RecorderDump, "recorder-dump"),
        ] {
            let text = encode_request(&req).expect("encodes");
            assert!(text.contains(&format!("{word}\n")));
            let back = decode_request(&text).expect("decodes");
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&req));
        }
        assert!(decode_request("vericomp-request 2\nsweep\ntrace zz\nend\n").is_err());
    }

    #[test]
    fn metrics_and_recorder_responses_carry_json_blobs() {
        // bodies may contain `end` lines — the blob framing must hold
        let json = "{\"counters\": {\"x\": 1}}\nend\n{}".to_owned();
        for make in [Response::Metrics, Response::Recorder] {
            let text = encode_response(&make(json.clone()));
            let mut reader = std::io::BufReader::new(text.as_bytes());
            let frame = read_frame(&mut reader).expect("reads").expect("one frame");
            assert_eq!(frame, text.as_bytes());
            let back = decode_response(&text).expect("decodes");
            match back {
                Response::Metrics(body) | Response::Recorder(body) => assert_eq!(body, json),
                _ => panic!("wrong response kind"),
            }
        }
    }

    #[test]
    fn sweep_response_spans_roundtrip_outside_the_digest() {
        let spec = SweepSpec::new()
            .nodes(&fleet::named_suite()[..1])
            .level(OptLevel::Verified);
        let spec = normalize_spec(&spec, &MachineConfig::mpc755());
        let result = crate::service::Pipeline::in_memory()
            .run_sweep(&spec)
            .expect("solo");
        let mut response = SweepResponse::from_result(&result);
        response.spans = vec![
            Span::stage("compile", 0, 10, 20, "trace=00000000000000ab request=3"),
            Span::pass("mem2reg", 0, 12, 4, ""),
            Span::event("search:admitted", 1, 30, "flag=cse"),
        ];
        let text = encode_response(&Response::Sweep(response.clone()));
        let Response::Sweep(back) = decode_response(&text).expect("decodes") else {
            panic!("wrong response kind");
        };
        assert!(back.verify(), "spans must not perturb the cells digest");
        assert_eq!(back.digest, response.digest);
        assert_eq!(back.spans.len(), 3);
        assert_eq!(back.spans[0].name, "compile");
        assert_eq!(back.spans[0].kind, SpanKind::Stage);
        assert_eq!(back.spans[0].detail, "trace=00000000000000ab request=3");
        assert_eq!(back.spans[1].detail, "");
        assert_eq!(back.spans[1].dur_ns, 4);
        assert_eq!(back.spans[2].kind, SpanKind::Event);
        assert_eq!(back.spans[2].job, 1);
        // a hostile span line is an error, not a panic
        assert!(decode_sweep_payload(
            "axes 0 0 0\nspan bogus 0 0 0 x\ndigest 00000000000000000000000000000000"
        )
        .is_err());
    }
}
