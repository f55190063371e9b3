//! The persistent placement cache (`.bigfoot-cache/placement.bfpc`).
//!
//! BFPC is a little-endian binary format holding, per analyzed method
//! site, everything a warm run needs to decide whether the cold run's
//! placement is still valid and to replay it if so:
//!
//! * the structural **body fingerprint** the placement was computed from,
//! * the recorded fact **read-set** (callee effect summaries and field
//!   volatility the analysis actually queried) plus its value digest
//!   (`facts_fp`),
//! * the **kill-set scan summary** of the body (so warm runs rescan only
//!   edited bodies before re-running the cheap name-level fixpoint),
//! * the **placed body** exactly as the per-method analysis produced it
//!   (pre-cleanup; statement ids are not stored — the pipeline renumbers
//!   after assembly, which is what makes warm output byte-identical to
//!   cold).
//!
//! Layout: magic `BFPC`, a `u32` version, two `u64` global digests
//! (analysis-config and volatile-set fingerprints), then a counted list
//! of entries. Integers are LEB128 varints except fingerprints (fixed 8
//! bytes LE) and the version (fixed 4 bytes LE — a byte-swapped header
//! from a foreign-endian writer surfaces as `UnsupportedVersion`, not
//! garbage). Decoding is hardened in the same style as the BFTR/BFTC
//! trace codecs: every malformed input maps to a typed [`CacheError`],
//! allocation sizes are bounded before they are trusted, and the caller
//! falls back to a cold run — never a panic, never a silently wrong
//! placement.

use crate::killset::{Effects, KillSummary};
use crate::readset::ReadSet;
use bigfoot_bfj::{AccessKind, Block, CheckPath, Expr, Path, Range, Stmt, StmtKind, Sym, Unop};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path as FsPath;

/// File magic: "BFPC" (BigFoot Placement Cache).
pub const CACHE_MAGIC: [u8; 4] = *b"BFPC";
/// Current format version.
pub const CACHE_VERSION: u32 = 1;
/// File name inside the cache directory.
pub const CACHE_FILE: &str = "placement.bfpc";

/// Upper bound on any single decoded length (strings, lists). Generous
/// for real programs, small enough that a corrupt length cannot drive an
/// absurd allocation.
const MAX_LEN: u64 = 1 << 24;

/// Typed decode errors. Every malformed cache file maps to one of these;
/// the incremental driver treats any of them as "no cache" (plus a
/// `static.cache.invalid` counter), never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The file does not start with `BFPC`.
    BadMagic,
    /// Unknown format version (includes byte-swapped headers written by
    /// a foreign-endianness encoder).
    UnsupportedVersion {
        /// The version field as read.
        found: u32,
    },
    /// The file ends mid-record.
    Truncated,
    /// An enum tag byte is out of range.
    BadTag {
        /// Which decoder hit it.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length field exceeds `MAX_LEN` (2^24).
    TooLarge {
        /// Which decoder hit it.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// Well-formed records followed by trailing garbage.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::BadMagic => write!(f, "not a BFPC placement cache (bad magic)"),
            CacheError::UnsupportedVersion { found } => {
                write!(f, "unsupported placement cache version {found}")
            }
            CacheError::Truncated => write!(f, "placement cache truncated"),
            CacheError::BadTag { what, tag } => {
                write!(f, "invalid {what} tag {tag:#04x} in placement cache")
            }
            CacheError::TooLarge { what, len } => {
                write!(f, "implausible {what} length {len} in placement cache")
            }
            CacheError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after placement cache records")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// One cached method site: the fingerprints guarding reuse, the recorded
/// read-set, the kill-scan summary, and the placed body.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The site's bare method name (`"main"` for the main block); used
    /// to rebuild the name-keyed kill-set fixpoint.
    pub method_name: &'static str,
    /// Structural fingerprint of the freshened body the placement was
    /// computed from.
    pub body_fp: u64,
    /// Digest of the read-set values observed during the cold analysis.
    pub facts_fp: u64,
    /// The cross-method facts the analysis read (domain + values).
    pub readset: ReadSet,
    /// Kill-set scan summary of the body (direct effects + callees).
    pub kill: KillSummary,
    /// The placed body, exactly as the per-method analysis returned it.
    pub placed: Block,
}

/// A whole placement cache: global config digests plus entries keyed by
/// qualified site name (`"Class.method#ordinal"`, `"main"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementCache {
    /// Fingerprint of the analysis configuration (options + the version
    /// constants of every analysis layer).
    pub config_fp: u64,
    /// Fingerprint of the program's volatile field set (kill-scan
    /// summaries are only reusable when this matches).
    pub volatiles_fp: u64,
    /// Entries by qualified site name (sorted, for stable encoding).
    pub entries: BTreeMap<String, CacheEntry>,
}

impl PlacementCache {
    /// Serializes the cache to BFPC bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(4096);
        w.extend_from_slice(&CACHE_MAGIC);
        w.extend_from_slice(&CACHE_VERSION.to_le_bytes());
        w.extend_from_slice(&self.config_fp.to_le_bytes());
        w.extend_from_slice(&self.volatiles_fp.to_le_bytes());
        put_varint(&mut w, self.entries.len() as u64);
        for (key, e) in &self.entries {
            put_str(&mut w, key);
            put_str(&mut w, e.method_name);
            w.extend_from_slice(&e.body_fp.to_le_bytes());
            w.extend_from_slice(&e.facts_fp.to_le_bytes());
            put_readset(&mut w, &e.readset);
            put_kill(&mut w, &e.kill);
            put_block(&mut w, &e.placed);
        }
        w
    }

    /// Decodes BFPC bytes, validating the header and every record.
    pub fn decode(bytes: &[u8]) -> Result<PlacementCache, CacheError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != CACHE_MAGIC {
            return Err(CacheError::BadMagic);
        }
        let version = r.u32()?;
        if version != CACHE_VERSION {
            return Err(CacheError::UnsupportedVersion { found: version });
        }
        let config_fp = r.u64()?;
        let volatiles_fp = r.u64()?;
        let n = r.len("entry count")?;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let key = r.string("entry key")?;
            let method_name = Sym::intern(&r.string("method name")?).as_str();
            let body_fp = r.u64()?;
            let facts_fp = r.u64()?;
            let readset = r.readset()?;
            let kill = r.kill()?;
            let placed = r.block("placed body")?;
            entries.insert(
                key,
                CacheEntry {
                    method_name,
                    body_fp,
                    facts_fp,
                    readset,
                    kill,
                    placed,
                },
            );
        }
        if r.pos != bytes.len() {
            return Err(CacheError::TrailingBytes {
                extra: bytes.len() - r.pos,
            });
        }
        Ok(PlacementCache {
            config_fp,
            volatiles_fp,
            entries,
        })
    }

    /// Loads the cache from `dir`, if present. `Ok(None)` means no cache
    /// file (a plain cold run); `Err` means a file existed but was
    /// malformed (callers count `static.cache.invalid` and run cold).
    pub fn load(dir: &FsPath) -> Result<Option<PlacementCache>, CacheError> {
        let path = dir.join(CACHE_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return Ok(None),
        };
        PlacementCache::decode(&bytes).map(Some)
    }

    /// Writes the cache into `dir` (created if needed), atomically via a
    /// temp file so a crashed writer cannot leave a torn cache.
    pub fn store(&self, dir: &FsPath) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        let bytes = self.encode();
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, dir.join(CACHE_FILE))
    }
}

// ---------------------------------------------------------------- encode

fn put_varint(w: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.push(byte);
            return;
        }
        w.push(byte | 0x80);
    }
}

fn put_i64(w: &mut Vec<u8>, v: i64) {
    // Zigzag.
    put_varint(w, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    put_varint(w, s.len() as u64);
    w.extend_from_slice(s.as_bytes());
}

fn put_sym(w: &mut Vec<u8>, s: Sym) {
    put_str(w, s.as_str());
}

fn effects_bits(e: Effects) -> u8 {
    (e.acquires as u8) | ((e.releases as u8) << 1) | ((e.writes_heap as u8) << 2)
}

fn put_readset(w: &mut Vec<u8>, rs: &ReadSet) {
    put_varint(w, rs.callees.len() as u64);
    for (&name, &eff) in &rs.callees {
        put_str(w, name);
        w.push(effects_bits(eff));
    }
    put_varint(w, rs.fields.len() as u64);
    for (&field, &vol) in &rs.fields {
        put_str(w, field);
        w.push(vol as u8);
    }
}

fn put_kill(w: &mut Vec<u8>, k: &KillSummary) {
    w.push(effects_bits(k.direct));
    put_varint(w, k.callees.len() as u64);
    for &c in &k.callees {
        put_sym(w, c);
    }
}

fn put_expr(w: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Int(v) => {
            w.push(0);
            put_i64(w, *v);
        }
        Expr::Bool(v) => {
            w.push(1);
            w.push(*v as u8);
        }
        Expr::Null => w.push(2),
        Expr::Var(x) => {
            w.push(3);
            put_sym(w, *x);
        }
        Expr::Unop(op, e) => {
            w.push(4);
            w.push(match op {
                Unop::Neg => 0,
                Unop::Not => 1,
            });
            put_expr(w, e);
        }
        Expr::Binop(op, l, r) => {
            w.push(5);
            w.push(binop_tag(*op));
            put_expr(w, l);
            put_expr(w, r);
        }
        Expr::Len(a) => {
            w.push(6);
            put_sym(w, *a);
        }
    }
}

fn binop_tag(op: bigfoot_bfj::Binop) -> u8 {
    use bigfoot_bfj::Binop::*;
    match op {
        Add => 0,
        Sub => 1,
        Mul => 2,
        Div => 3,
        Mod => 4,
        Eq => 5,
        Ne => 6,
        Lt => 7,
        Le => 8,
        Gt => 9,
        Ge => 10,
        And => 11,
        Or => 12,
    }
}

fn binop_from(tag: u8) -> Option<bigfoot_bfj::Binop> {
    use bigfoot_bfj::Binop::*;
    Some(match tag {
        0 => Add,
        1 => Sub,
        2 => Mul,
        3 => Div,
        4 => Mod,
        5 => Eq,
        6 => Ne,
        7 => Lt,
        8 => Le,
        9 => Gt,
        10 => Ge,
        11 => And,
        12 => Or,
        _ => return None,
    })
}

fn put_range(w: &mut Vec<u8>, r: &Range) {
    put_expr(w, &r.lo);
    put_expr(w, &r.hi);
    put_i64(w, r.step);
}

fn put_path(w: &mut Vec<u8>, p: &Path) {
    match p {
        Path::Fields { base, fields } => {
            w.push(0);
            put_sym(w, *base);
            put_varint(w, fields.len() as u64);
            for &f in fields {
                put_sym(w, f);
            }
        }
        Path::Arr { base, range } => {
            w.push(1);
            put_sym(w, *base);
            put_range(w, range);
        }
    }
}

fn put_stmt(w: &mut Vec<u8>, s: &Stmt) {
    // Statement ids are NOT stored: the pipeline renumbers the whole
    // program after assembling cached and fresh bodies.
    match &s.kind {
        StmtKind::Skip => w.push(0),
        StmtKind::Assign { x, e } => {
            w.push(1);
            put_sym(w, *x);
            put_expr(w, e);
        }
        StmtKind::Rename { fresh, old } => {
            w.push(2);
            put_sym(w, *fresh);
            put_sym(w, *old);
        }
        StmtKind::If {
            cond,
            then_b,
            else_b,
        } => {
            w.push(3);
            put_expr(w, cond);
            put_block(w, then_b);
            put_block(w, else_b);
        }
        StmtKind::Loop { head, exit, tail } => {
            w.push(4);
            put_block(w, head);
            put_expr(w, exit);
            put_block(w, tail);
        }
        StmtKind::Acquire { lock } => {
            w.push(5);
            put_sym(w, *lock);
        }
        StmtKind::Release { lock } => {
            w.push(6);
            put_sym(w, *lock);
        }
        StmtKind::New { x, class } => {
            w.push(7);
            put_sym(w, *x);
            put_sym(w, *class);
        }
        StmtKind::NewArray { x, len } => {
            w.push(8);
            put_sym(w, *x);
            put_expr(w, len);
        }
        StmtKind::ReadField { x, obj, field } => {
            w.push(9);
            put_sym(w, *x);
            put_sym(w, *obj);
            put_sym(w, *field);
        }
        StmtKind::WriteField { obj, field, src } => {
            w.push(10);
            put_sym(w, *obj);
            put_sym(w, *field);
            put_sym(w, *src);
        }
        StmtKind::ReadArr { x, arr, idx } => {
            w.push(11);
            put_sym(w, *x);
            put_sym(w, *arr);
            put_expr(w, idx);
        }
        StmtKind::WriteArr { arr, idx, src } => {
            w.push(12);
            put_sym(w, *arr);
            put_expr(w, idx);
            put_sym(w, *src);
        }
        StmtKind::Call {
            x,
            recv,
            meth,
            args,
        } => {
            w.push(13);
            put_sym(w, *x);
            put_sym(w, *recv);
            put_sym(w, *meth);
            put_varint(w, args.len() as u64);
            for &a in args {
                put_sym(w, a);
            }
        }
        StmtKind::Fork {
            x,
            recv,
            meth,
            args,
        } => {
            w.push(14);
            put_sym(w, *x);
            put_sym(w, *recv);
            put_sym(w, *meth);
            put_varint(w, args.len() as u64);
            for &a in args {
                put_sym(w, a);
            }
        }
        StmtKind::Join { t } => {
            w.push(15);
            put_sym(w, *t);
        }
        StmtKind::Wait { lock } => {
            w.push(16);
            put_sym(w, *lock);
        }
        StmtKind::Notify { lock } => {
            w.push(17);
            put_sym(w, *lock);
        }
        StmtKind::Check { paths } => {
            w.push(18);
            put_varint(w, paths.len() as u64);
            for cp in paths {
                w.push(match cp.kind {
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                });
                put_path(w, &cp.path);
            }
        }
    }
}

fn put_block(w: &mut Vec<u8>, b: &Block) {
    put_varint(w, b.stmts.len() as u64);
    for s in &b.stmts {
        put_stmt(w, s);
    }
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CacheError> {
        if self.buf.len() - self.pos < n {
            return Err(CacheError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8, CacheError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CacheError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CacheError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> Result<u64, CacheError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 63 && b > 1 {
                return Err(CacheError::TooLarge {
                    what: "varint",
                    len: u64::MAX,
                });
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CacheError::TooLarge {
                    what: "varint",
                    len: u64::MAX,
                });
            }
        }
    }

    fn i64(&mut self) -> Result<i64, CacheError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn len(&mut self, what: &'static str) -> Result<usize, CacheError> {
        let n = self.varint()?;
        if n > MAX_LEN {
            return Err(CacheError::TooLarge { what, len: n });
        }
        Ok(n as usize)
    }

    fn string(&mut self, what: &'static str) -> Result<String, CacheError> {
        let n = self.len(what)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CacheError::BadTag { what, tag: 0xff })
    }

    fn sym(&mut self) -> Result<Sym, CacheError> {
        Ok(Sym::intern(&self.string("identifier")?))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, CacheError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CacheError::BadTag { what, tag }),
        }
    }

    fn effects(&mut self) -> Result<Effects, CacheError> {
        let bits = self.byte()?;
        if bits > 0b111 {
            return Err(CacheError::BadTag {
                what: "effects",
                tag: bits,
            });
        }
        Ok(Effects {
            acquires: bits & 1 != 0,
            releases: bits & 2 != 0,
            writes_heap: bits & 4 != 0,
        })
    }

    fn readset(&mut self) -> Result<ReadSet, CacheError> {
        let mut rs = ReadSet::default();
        let n = self.len("read-set callees")?;
        for _ in 0..n {
            let name = self.sym()?;
            let eff = self.effects()?;
            rs.record_callee(name, eff);
        }
        let n = self.len("read-set fields")?;
        for _ in 0..n {
            let field = self.sym()?;
            let vol = self.bool("read-set volatility")?;
            rs.record_field(field, vol);
        }
        Ok(rs)
    }

    fn kill(&mut self) -> Result<KillSummary, CacheError> {
        let direct = self.effects()?;
        let n = self.len("kill callees")?;
        let mut callees = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            callees.push(self.sym()?);
        }
        Ok(KillSummary { direct, callees })
    }

    fn expr(&mut self) -> Result<Expr, CacheError> {
        Ok(match self.byte()? {
            0 => Expr::Int(self.i64()?),
            1 => Expr::Bool(self.bool("bool literal")?),
            2 => Expr::Null,
            3 => Expr::Var(self.sym()?),
            4 => {
                let op = match self.byte()? {
                    0 => Unop::Neg,
                    1 => Unop::Not,
                    tag => return Err(CacheError::BadTag { what: "unop", tag }),
                };
                Expr::Unop(op, Box::new(self.expr()?))
            }
            5 => {
                let tag = self.byte()?;
                let op = binop_from(tag).ok_or(CacheError::BadTag { what: "binop", tag })?;
                Expr::Binop(op, Box::new(self.expr()?), Box::new(self.expr()?))
            }
            6 => Expr::Len(self.sym()?),
            tag => return Err(CacheError::BadTag { what: "expr", tag }),
        })
    }

    fn range(&mut self) -> Result<Range, CacheError> {
        let lo = self.expr()?;
        let hi = self.expr()?;
        let step = self.i64()?;
        Ok(Range { lo, hi, step })
    }

    fn path(&mut self) -> Result<Path, CacheError> {
        Ok(match self.byte()? {
            0 => {
                let base = self.sym()?;
                let n = self.len("path fields")?;
                let mut fields = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    fields.push(self.sym()?);
                }
                Path::Fields { base, fields }
            }
            1 => Path::Arr {
                base: self.sym()?,
                range: self.range()?,
            },
            tag => return Err(CacheError::BadTag { what: "path", tag }),
        })
    }

    fn stmt(&mut self) -> Result<Stmt, CacheError> {
        let kind = match self.byte()? {
            0 => StmtKind::Skip,
            1 => StmtKind::Assign {
                x: self.sym()?,
                e: self.expr()?,
            },
            2 => StmtKind::Rename {
                fresh: self.sym()?,
                old: self.sym()?,
            },
            3 => StmtKind::If {
                cond: self.expr()?,
                then_b: self.block("then block")?,
                else_b: self.block("else block")?,
            },
            4 => StmtKind::Loop {
                head: self.block("loop head")?,
                exit: self.expr()?,
                tail: self.block("loop tail")?,
            },
            5 => StmtKind::Acquire { lock: self.sym()? },
            6 => StmtKind::Release { lock: self.sym()? },
            7 => StmtKind::New {
                x: self.sym()?,
                class: self.sym()?,
            },
            8 => StmtKind::NewArray {
                x: self.sym()?,
                len: self.expr()?,
            },
            9 => StmtKind::ReadField {
                x: self.sym()?,
                obj: self.sym()?,
                field: self.sym()?,
            },
            10 => StmtKind::WriteField {
                obj: self.sym()?,
                field: self.sym()?,
                src: self.sym()?,
            },
            11 => StmtKind::ReadArr {
                x: self.sym()?,
                arr: self.sym()?,
                idx: self.expr()?,
            },
            12 => StmtKind::WriteArr {
                arr: self.sym()?,
                idx: self.expr()?,
                src: self.sym()?,
            },
            13 => {
                let x = self.sym()?;
                let recv = self.sym()?;
                let meth = self.sym()?;
                let n = self.len("call args")?;
                let mut args = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    args.push(self.sym()?);
                }
                StmtKind::Call {
                    x,
                    recv,
                    meth,
                    args,
                }
            }
            14 => {
                let x = self.sym()?;
                let recv = self.sym()?;
                let meth = self.sym()?;
                let n = self.len("fork args")?;
                let mut args = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    args.push(self.sym()?);
                }
                StmtKind::Fork {
                    x,
                    recv,
                    meth,
                    args,
                }
            }
            15 => StmtKind::Join { t: self.sym()? },
            16 => StmtKind::Wait { lock: self.sym()? },
            17 => StmtKind::Notify { lock: self.sym()? },
            18 => {
                let n = self.len("check paths")?;
                let mut paths = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let kind = match self.byte()? {
                        0 => AccessKind::Read,
                        1 => AccessKind::Write,
                        tag => {
                            return Err(CacheError::BadTag {
                                what: "access kind",
                                tag,
                            })
                        }
                    };
                    paths.push(CheckPath {
                        kind,
                        path: self.path()?,
                    });
                }
                StmtKind::Check { paths }
            }
            tag => return Err(CacheError::BadTag { what: "stmt", tag }),
        };
        Ok(Stmt::new(kind))
    }

    fn block(&mut self, what: &'static str) -> Result<Block, CacheError> {
        let n = self.len(what)?;
        let mut stmts = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            stmts.push(self.stmt()?);
        }
        Ok(Block { stmts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigfoot_bfj::parse_program;

    fn sample_cache() -> PlacementCache {
        let p = parse_program(
            "class C {
                 field f; volatile v;
                 meth m(x, a) {
                     acq(x);
                     this.f = x;
                     y = this.f;
                     if (y < 3) { a[y] = 1; } else { skip; }
                     while (y < 10) { y = y + 1; }
                     r = this.m(y, a);
                     fork t = this.m(y, a);
                     join(t);
                     wait(x); notify(x);
                     this.v = y;
                     w = this.v;
                     z = new C;
                     b = new_array(8);
                     q = b[0];
                     rel(x);
                     return y;
                 }
             }
             main { skip; }",
        )
        .unwrap();
        let mut entries = BTreeMap::new();
        let mut rs = ReadSet::default();
        rs.record_callee(
            Sym::intern("m"),
            Effects {
                acquires: true,
                releases: true,
                writes_heap: true,
            },
        );
        rs.record_field(Sym::intern("v"), true);
        rs.record_field(Sym::intern("f"), false);
        entries.insert(
            "C.m#0".to_string(),
            CacheEntry {
                method_name: "m",
                body_fp: 0x1234_5678_9abc_def0,
                facts_fp: rs.fingerprint(),
                readset: rs,
                kill: KillSummary {
                    direct: Effects {
                        acquires: true,
                        releases: true,
                        writes_heap: true,
                    },
                    callees: vec![Sym::intern("m")],
                },
                placed: p.classes[0].methods[0].body.clone(),
            },
        );
        entries.insert(
            "main".to_string(),
            CacheEntry {
                method_name: "main",
                body_fp: 7,
                facts_fp: ReadSet::default().fingerprint(),
                readset: ReadSet::default(),
                kill: KillSummary::default(),
                placed: p.main.clone(),
            },
        );
        PlacementCache {
            config_fp: 0xfeed_beef_dead_cafe,
            volatiles_fp: 42,
            entries,
        }
    }

    fn strip_ids(mut c: PlacementCache) -> PlacementCache {
        fn walk(b: &mut Block) {
            for s in &mut b.stmts {
                s.id = bigfoot_bfj::StmtId(u32::MAX);
                match &mut s.kind {
                    StmtKind::If { then_b, else_b, .. } => {
                        walk(then_b);
                        walk(else_b);
                    }
                    StmtKind::Loop { head, tail, .. } => {
                        walk(head);
                        walk(tail);
                    }
                    _ => {}
                }
            }
        }
        for e in c.entries.values_mut() {
            walk(&mut e.placed);
        }
        c
    }

    #[test]
    fn round_trips_every_statement_form() {
        let cache = sample_cache();
        let decoded = PlacementCache::decode(&cache.encode()).unwrap();
        // Ids are not persisted; compare up to ids.
        assert_eq!(strip_ids(cache), strip_ids(decoded));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_cache().encode();
        bytes[0] = b'X';
        assert_eq!(PlacementCache::decode(&bytes), Err(CacheError::BadMagic));
    }

    #[test]
    fn byte_swapped_version_is_unsupported_not_garbage() {
        let mut bytes = sample_cache().encode();
        // A big-endian writer would emit the version bytes reversed.
        bytes[4..8].reverse();
        assert_eq!(
            PlacementCache::decode(&bytes),
            Err(CacheError::UnsupportedVersion {
                found: CACHE_VERSION.swap_bytes()
            })
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_cache().encode();
        for cut in 0..bytes.len() {
            match PlacementCache::decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(c) => panic!("truncation at {cut} decoded as {} entries", c.entries.len()),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_cache().encode();
        bytes.push(0);
        assert_eq!(
            PlacementCache::decode(&bytes),
            Err(CacheError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn load_missing_is_none_and_store_round_trips() {
        let dir = std::env::temp_dir().join(format!("bfpc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(PlacementCache::load(&dir), Ok(None));
        let cache = sample_cache();
        cache.store(&dir).unwrap();
        let loaded = PlacementCache::load(&dir).unwrap().unwrap();
        assert_eq!(strip_ids(cache), strip_ids(loaded));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
