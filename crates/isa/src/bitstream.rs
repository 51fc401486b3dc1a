//! Binary bitstream format for [`MachineProgram`].
//!
//! The configuration bitstream is what the paper's final compilation step
//! emits ("the final bitstream generation step converts CFG and DFG into
//! configuration bitstreams according to the hardware model", §5). The
//! format is little-endian and section-based:
//!
//! ```text
//! HEADER   magic "MRNT", version u16, rows u8, cols u8
//! STRINGS  string pool: count, then (len u16, bytes)*
//! PARAMS   count, then (name_idx u32, tag u8, bits u32)*
//! ARRAYS   count, then (name_idx u32, len u32, elem u8, flags u8)*
//! NODES    count, then per node one 64-bit instruction word
//!          [ opcode:8 | aux:12 | src0:14 | src1:14 | src2:14 | flags:2 ]
//!          plus a placement word [kind:2 | idx:16 | bb:16 | label_idx:24+
//!          has_label:1] and an optional literal-pool reference
//! LITERALS value pool for immediates: count, then (tag u8, bits u32)*
//! ROUTES   count, then (src u32, dst u32, port u8, class/flags u8,
//!          path_len u16, hops u16*)
//! PES      count, then per PE: config count, per config (bb u16, mode u8,
//!          slot count u16, slots u32*)
//! ```
//!
//! Operand selectors pack as 14-bit fields: 2 tag bits (none / route /
//! literal / param) and 12 index bits; selectors whose index exceeds 12
//! bits use an escape tag in `flags` and trailing u32 extension words.
//! For simplicity and robustness this implementation always writes
//! extension words when any index exceeds the inline field; round-trip
//! equality is property-tested.

use crate::config::{
    ArrayInfo, BbConfig, CtrlMode, MachineProgram, NodeConfig, OperandSrc, ParamInfo, PeConfig,
    Placement, Route, RouteClass,
};
use crate::opcode::{decode_op, encode_op};
use marionette_cdfg::value::{ElemTy, Value};

/// Bitstream decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Truncated input.
    Truncated,
    /// Malformed field contents.
    Malformed(String),
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::BadMagic => write!(f, "bad magic"),
            BitstreamError::BadVersion(v) => write!(f, "unsupported version {v}"),
            BitstreamError::Truncated => write!(f, "truncated bitstream"),
            BitstreamError::Malformed(m) => write!(f, "malformed bitstream: {m}"),
        }
    }
}

impl std::error::Error for BitstreamError {}

const MAGIC: &[u8; 4] = b"MRNT";
const VERSION: u16 = 1;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(4096),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        let b = s.as_bytes();
        self.u16(b.len() as u16);
        self.buf.extend_from_slice(b);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BitstreamError> {
        if self.pos + n > self.buf.len() {
            return Err(BitstreamError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, BitstreamError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, BitstreamError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, BitstreamError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, BitstreamError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A `u32` record count. Every record takes at least one byte, so a
    /// count beyond the bytes that remain is truncation — rejected
    /// before it can size an allocation.
    fn count32(&mut self) -> Result<usize, BitstreamError> {
        let n = self.u32()? as usize;
        self.within_rest(n)
    }
    /// A `u16` record count, bounded like [`Reader::count32`].
    fn count16(&mut self) -> Result<usize, BitstreamError> {
        let n = self.u16()? as usize;
        self.within_rest(n)
    }
    fn within_rest(&self, n: usize) -> Result<usize, BitstreamError> {
        if n > self.buf.len() - self.pos {
            return Err(BitstreamError::Truncated);
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, BitstreamError> {
        let n = self.u16()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| BitstreamError::Malformed("utf8".into()))
    }
}

fn value_tag(v: Value) -> (u8, u32) {
    match v {
        Value::I32(i) => (0, i as u32),
        Value::F32(f) => (1, f.to_bits()),
        Value::Unit => (2, 0),
        Value::Poison => (3, 0),
    }
}

fn value_untag(tag: u8, bits: u32) -> Result<Value, BitstreamError> {
    Ok(match tag {
        0 => Value::I32(bits as i32),
        1 => Value::F32(f32::from_bits(bits)),
        2 => Value::Unit,
        3 => Value::Poison,
        t => return Err(BitstreamError::Malformed(format!("value tag {t}"))),
    })
}

/// Encodes a program into its configuration bitstream.
pub fn encode(p: &MachineProgram) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);
    w.u8(p.rows);
    w.u8(p.cols);
    w.str(&p.name);

    // params
    w.u32(p.params.len() as u32);
    for pa in &p.params {
        w.str(&pa.name);
        let (t, b) = value_tag(pa.default);
        w.u8(t);
        w.u32(b);
    }
    // arrays
    w.u32(p.arrays.len() as u32);
    for a in &p.arrays {
        w.str(&a.name);
        w.u32(a.len);
        w.u8(match a.elem {
            ElemTy::I32 => 0,
            ElemTy::F32 => 1,
        });
        w.u8(a.is_output as u8);
    }
    // nodes: instruction word + placement word + operand extensions
    w.u32(p.nodes.len() as u32);
    for n in &p.nodes {
        let (opb, aux) = encode_op(n.op);
        // selectors: tag 0=none, 1=route, 2=literal(imm inline ext), 3=param
        let mut exts: Vec<u32> = Vec::new();
        let mut sel_field = |s: &OperandSrc| -> u16 {
            match s {
                OperandSrc::None => 0,
                OperandSrc::Route(r) => {
                    exts.push(*r);
                    1
                }
                OperandSrc::Imm(v) => {
                    let (t, b) = value_tag(*v);
                    exts.push(t as u32);
                    exts.push(b);
                    2
                }
                OperandSrc::Param(q) => {
                    exts.push(*q as u32);
                    3
                }
            }
        };
        let mut fields = [0u16; 3];
        for (i, f) in fields.iter_mut().enumerate() {
            if let Some(s) = n.srcs.get(i) {
                *f = sel_field(s);
            }
        }
        // Pack: opcode(8) aux(12) s0(2) s1(2) s2(2) nsrc(2) = 28 bits used;
        // indices live in extension words for unbounded range.
        let word: u64 = (opb as u64)
            | ((aux as u64 & 0xFFF) << 8)
            | ((fields[0] as u64) << 20)
            | ((fields[1] as u64) << 22)
            | ((fields[2] as u64) << 24)
            | ((n.srcs.len() as u64 & 0x3) << 26)
            | ((n.bb as u64) << 32)
            | ((n.group as u64) << 48);
        w.u64(word);
        let (pk, pidx) = match n.place {
            Placement::Pe { pe } => (0u8, pe),
            Placement::CtrlPlane { pe } => (1, pe),
            Placement::NetSwitch { sw } => (2, sw),
            Placement::MemUnit { unit } => (3, unit as u16),
        };
        w.u8(pk);
        w.u16(pidx);
        match &n.label {
            Some(l) => {
                w.u8(1);
                w.str(l);
            }
            None => w.u8(0),
        }
        w.u16(exts.len() as u16);
        for e in exts {
            w.u32(e);
        }
    }
    // routes
    w.u32(p.routes.len() as u32);
    for r in &p.routes {
        w.u32(r.src);
        w.u32(r.dst);
        w.u8(r.dst_port);
        let flags = (matches!(r.class, RouteClass::Ctrl) as u8)
            | ((r.activation as u8) << 1)
            | ((r.dynamic as u8) << 2);
        w.u8(flags);
        w.u16(r.path.len() as u16);
        for &h in &r.path {
            w.u16(h);
        }
    }
    // pes
    w.u32(p.pes.len() as u32);
    for pe in &p.pes {
        w.u16(pe.configs.len() as u16);
        for c in &pe.configs {
            w.u16(c.bb);
            w.u8(match c.mode {
                CtrlMode::Dfg => 0,
                CtrlMode::Branch => 1,
                CtrlMode::Loop => 2,
            });
            w.u16(c.slots.len() as u16);
            for &s in &c.slots {
                w.u32(s);
            }
        }
    }
    w.buf
}

/// Decodes a configuration bitstream.
///
/// # Errors
/// Returns [`BitstreamError`] on malformed input; a decoded program also
/// passes [`MachineProgram::validate`] if the original did.
pub fn decode(bytes: &[u8]) -> Result<MachineProgram, BitstreamError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(BitstreamError::BadMagic);
    }
    let ver = r.u16()?;
    if ver != VERSION {
        return Err(BitstreamError::BadVersion(ver));
    }
    let rows = r.u8()?;
    let cols = r.u8()?;
    let name = r.str()?;

    let nparams = r.count32()?;
    let mut params = Vec::with_capacity(nparams);
    for _ in 0..nparams {
        let name = r.str()?;
        let t = r.u8()?;
        let b = r.u32()?;
        params.push(ParamInfo {
            name,
            default: value_untag(t, b)?,
        });
    }
    let narrays = r.count32()?;
    let mut arrays = Vec::with_capacity(narrays);
    for _ in 0..narrays {
        let name = r.str()?;
        let len = r.u32()?;
        let elem = match r.u8()? {
            0 => ElemTy::I32,
            1 => ElemTy::F32,
            t => return Err(BitstreamError::Malformed(format!("elem {t}"))),
        };
        let is_output = r.u8()? != 0;
        arrays.push(ArrayInfo {
            name,
            len,
            elem,
            is_output,
        });
    }
    let nnodes = r.count32()?;
    let mut nodes = Vec::with_capacity(nnodes);
    for i in 0..nnodes {
        let word = r.u64()?;
        let opb = (word & 0xFF) as u8;
        let aux = ((word >> 8) & 0xFFF) as u16;
        let tags = [
            ((word >> 20) & 0x3) as u8,
            ((word >> 22) & 0x3) as u8,
            ((word >> 24) & 0x3) as u8,
        ];
        let nsrc = ((word >> 26) & 0x3) as usize;
        let bb = ((word >> 32) & 0xFFFF) as u16;
        let group = ((word >> 48) & 0xFFFF) as u16;
        let op =
            decode_op(opb, aux).map_err(|e| BitstreamError::Malformed(format!("node {i}: {e}")))?;
        let pk = r.u8()?;
        let pidx = r.u16()?;
        let place = match pk {
            0 => Placement::Pe { pe: pidx },
            1 => Placement::CtrlPlane { pe: pidx },
            2 => Placement::NetSwitch { sw: pidx },
            3 => Placement::MemUnit { unit: pidx as u8 },
            t => return Err(BitstreamError::Malformed(format!("placement {t}"))),
        };
        let label = if r.u8()? != 0 { Some(r.str()?) } else { None };
        let next = r.count16()?;
        let mut exts = Vec::with_capacity(next);
        for _ in 0..next {
            exts.push(r.u32()?);
        }
        let mut ei = 0usize;
        let mut srcs = Vec::with_capacity(nsrc);
        for tag in tags.iter().take(nsrc) {
            let s = match tag {
                0 => OperandSrc::None,
                1 => {
                    let v = *exts.get(ei).ok_or(BitstreamError::Truncated)?;
                    ei += 1;
                    OperandSrc::Route(v)
                }
                2 => {
                    let t = *exts.get(ei).ok_or(BitstreamError::Truncated)? as u8;
                    let b = *exts.get(ei + 1).ok_or(BitstreamError::Truncated)?;
                    ei += 2;
                    OperandSrc::Imm(value_untag(t, b)?)
                }
                3 => {
                    let v = *exts.get(ei).ok_or(BitstreamError::Truncated)?;
                    ei += 1;
                    OperandSrc::Param(v as u16)
                }
                _ => unreachable!(),
            };
            srcs.push(s);
        }
        nodes.push(NodeConfig {
            op,
            srcs,
            place,
            bb,
            group,
            label,
        });
    }
    let nroutes = r.count32()?;
    let mut routes = Vec::with_capacity(nroutes);
    for _ in 0..nroutes {
        let src = r.u32()?;
        let dst = r.u32()?;
        let dst_port = r.u8()?;
        let flags = r.u8()?;
        let plen = r.count16()?;
        let mut path = Vec::with_capacity(plen);
        for _ in 0..plen {
            path.push(r.u16()?);
        }
        routes.push(Route {
            src,
            dst,
            dst_port,
            class: if flags & 1 != 0 {
                RouteClass::Ctrl
            } else {
                RouteClass::Data
            },
            activation: flags & 2 != 0,
            dynamic: flags & 4 != 0,
            path,
        });
    }
    let npes = r.count32()?;
    let mut pes = Vec::with_capacity(npes);
    for _ in 0..npes {
        let ncfg = r.count16()?;
        let mut configs = Vec::with_capacity(ncfg);
        for _ in 0..ncfg {
            let bb = r.u16()?;
            let mode = match r.u8()? {
                0 => CtrlMode::Dfg,
                1 => CtrlMode::Branch,
                2 => CtrlMode::Loop,
                t => return Err(BitstreamError::Malformed(format!("mode {t}"))),
            };
            let nslots = r.count16()?;
            let mut slots = Vec::with_capacity(nslots);
            for _ in 0..nslots {
                slots.push(r.u32()?);
            }
            configs.push(BbConfig { bb, mode, slots });
        }
        pes.push(PeConfig { configs });
    }
    Ok(MachineProgram {
        name,
        rows,
        cols,
        nodes,
        routes,
        pes,
        arrays,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::sample;

    #[test]
    fn roundtrip_sample() {
        let p = sample();
        let bytes = encode(&p);
        let q = decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn oversized_count_is_truncation_not_an_allocation() {
        // Magic, version 1, a 4x4 fabric, an empty name, then a
        // parameter count of u32::MAX backed by just two bytes.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&[4, 4, 0, 0]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(bytes.len(), 16);
        assert_eq!(decode(&bytes).unwrap_err(), BitstreamError::Truncated);
    }

    #[test]
    fn bad_magic_rejected() {
        let p = sample();
        let mut bytes = encode(&p);
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err(), BitstreamError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let p = sample();
        let mut bytes = encode(&p);
        bytes[4] = 0xFF;
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            BitstreamError::BadVersion(_)
        ));
    }

    #[test]
    fn truncation_rejected() {
        let p = sample();
        let bytes = encode(&p);
        for cut in [5usize, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
