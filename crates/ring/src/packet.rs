//! The packet formats of Figures 4.3, 4.4 and 4.5, with byte-accurate wire
//! encodings.
//!
//! The machine itself only needs the wire *sizes* (it keeps page contents in
//! the shared [`df_storage::PageStore`] rather than copying bytes into every
//! simulated message), so the size functions
//! [`instruction_packet_size`] / [`result_packet_size`] /
//! [`CONTROL_PACKET_SIZE`] are what the simulator charges against the rings.
//! The full structs with `encode`/`decode` exist so the formats are real,
//! testable artifacts — property tests round-trip them.
//!
//! Field widths (bytes): ids 2, lengths 4, flags/opcodes 1, relation names a
//! fixed 8 (1979 machines used short fixed names), tuple length & format 2.

use df_relalg::{Error, Result};

/// Fixed width of a relation-name field.
pub const RELATION_NAME_BYTES: usize = 8;

/// Header bytes of an instruction packet before the per-operand sections:
/// IPid(2) + packet length(4) + query id(2) + ICid sender(2) +
/// ICid destination(2) + flush flag(1) + opcode(1) +
/// result relation name(8) + result tuple length & format(2) +
/// number of source operands(1).
pub const INSTRUCTION_HEADER_BYTES: usize = 2 + 4 + 2 + 2 + 2 + 1 + 1 + RELATION_NAME_BYTES + 2 + 1;

/// Per-source-operand bytes excluding the data page itself:
/// relation name(8) + tuple length & format(2) + page length(4).
pub const OPERAND_HEADER_BYTES: usize = RELATION_NAME_BYTES + 2 + 4;

/// Result packet bytes excluding the data page:
/// ICid(2) + packet length(4) + relation name(8) + page length(4).
pub const RESULT_HEADER_BYTES: usize = 2 + 4 + RELATION_NAME_BYTES + 4;

/// Control packet size (Fig 4.5): ICid(2) + packet length(4) +
/// IPid of sender(2) + message(8: 4-byte code + 4-byte argument).
pub const CONTROL_PACKET_SIZE: usize = 2 + 4 + 2 + 8;

/// Wire size of an instruction packet carrying data pages of the given
/// sizes (Fig 4.3).
pub fn instruction_packet_size(page_bytes: &[usize]) -> usize {
    INSTRUCTION_HEADER_BYTES
        + page_bytes
            .iter()
            .map(|b| OPERAND_HEADER_BYTES + b)
            .sum::<usize>()
}

/// Wire size of a result packet carrying one data page (Fig 4.4).
pub fn result_packet_size(page_bytes: usize) -> usize {
    RESULT_HEADER_BYTES + page_bytes
}

/// The instruction opcodes of the machine (Fig 4.3's "instruction opcode").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// σ restrict.
    Restrict = 1,
    /// π project (streaming).
    Project = 2,
    /// ⋈ nested-loops join step.
    Join = 3,
    /// × cross product step.
    Cross = 4,
    /// ∪ union finalize.
    Union = 5,
    /// − difference finalize.
    Difference = 6,
    /// π-distinct finalize.
    ProjectDistinct = 7,
    /// Copy (append staging / bare scans).
    Copy = 8,
    /// Delete filter.
    Delete = 9,
}

impl Opcode {
    /// Decode from the wire byte.
    fn from_byte(b: u8) -> Result<Opcode> {
        Ok(match b {
            1 => Opcode::Restrict,
            2 => Opcode::Project,
            3 => Opcode::Join,
            4 => Opcode::Cross,
            5 => Opcode::Union,
            6 => Opcode::Difference,
            7 => Opcode::ProjectDistinct,
            8 => Opcode::Copy,
            9 => Opcode::Delete,
            _ => {
                return Err(Error::Corrupt {
                    detail: format!("unknown opcode byte {b}"),
                })
            }
        })
    }
}

/// One source-operand section of an instruction packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperandSection {
    /// Relation name (≤ 8 bytes, NUL-padded on the wire).
    pub relation_name: String,
    /// "Tuple length & format".
    pub tuple_length: u16,
    /// The data page image.
    pub data_page: Vec<u8>,
}

/// Figure 4.3: the instruction packet an IC sends to an IP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionPacket {
    /// Destination IP.
    pub ipid: u16,
    /// Query this instruction belongs to.
    pub query_id: u16,
    /// The controlling IC.
    pub icid_sender: u16,
    /// The IC controlling the subsequent operation (result destination).
    pub icid_destination: u16,
    /// "Flush-when-done": if set, the IP emits its buffered result tuples
    /// after executing this packet.
    pub flush_when_done: bool,
    /// The operation to apply.
    pub opcode: Opcode,
    /// Result relation name.
    pub result_relation: String,
    /// Result tuple length & format.
    pub result_tuple_length: u16,
    /// The source operands (1 or 2 in the paper's machine).
    pub operands: Vec<OperandSection>,
}

/// Figure 4.4: the result packet an IP sends to the destination IC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultPacket {
    /// Destination IC.
    pub icid: u16,
    /// Result relation name.
    pub relation_name: String,
    /// The data page image.
    pub data_page: Vec<u8>,
}

/// The message codes a control packet can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMessage {
    /// "Done": the IP finished its packet and is ready for more work.
    Done,
    /// Done + request for inner page `arg` (advance request, §4.2).
    RequestInner {
        /// Index of the requested inner page.
        index: u32,
    },
    /// Catch-up request for a page the IP *missed* while its memory was
    /// full (always honoured by the IC, never ignored).
    RequestMissed {
        /// Index of the missed inner page.
        index: u32,
    },
    /// Ready for another outer page.
    RequestOuter,
}

impl ControlMessage {
    fn code_arg(self) -> (u32, u32) {
        match self {
            ControlMessage::Done => (1, 0),
            ControlMessage::RequestInner { index } => (2, index),
            ControlMessage::RequestMissed { index } => (3, index),
            ControlMessage::RequestOuter => (4, 0),
        }
    }

    fn from_code_arg(code: u32, arg: u32) -> Result<ControlMessage> {
        Ok(match code {
            1 => ControlMessage::Done,
            2 => ControlMessage::RequestInner { index: arg },
            3 => ControlMessage::RequestMissed { index: arg },
            4 => ControlMessage::RequestOuter,
            _ => {
                return Err(Error::Corrupt {
                    detail: format!("unknown control message code {code}"),
                })
            }
        })
    }
}

/// Figure 4.5: the control packet an IP sends to its controlling IC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPacket {
    /// Destination IC.
    pub icid: u16,
    /// Sending IP.
    pub ipid_sender: u16,
    /// The message.
    pub message: ControlMessage,
}

// ------------------------------------------------------------------ encode

fn put_name(out: &mut Vec<u8>, name: &str) -> Result<()> {
    let bytes = name.as_bytes();
    if bytes.len() > RELATION_NAME_BYTES || bytes.contains(&0) {
        return Err(Error::ValueOutOfRange {
            detail: format!("relation name `{name}` does not fit {RELATION_NAME_BYTES} bytes"),
        });
    }
    out.extend_from_slice(bytes);
    out.resize(out.len() + (RELATION_NAME_BYTES - bytes.len()), 0);
    Ok(())
}

fn get_name(bytes: &[u8]) -> Result<(String, usize)> {
    if bytes.len() < RELATION_NAME_BYTES {
        return Err(Error::Corrupt {
            detail: "truncated relation name".into(),
        });
    }
    let raw = &bytes[..RELATION_NAME_BYTES];
    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
    let s = std::str::from_utf8(&raw[..end]).map_err(|_| Error::Corrupt {
        detail: "relation name is not UTF-8".into(),
    })?;
    Ok((s.to_owned(), RELATION_NAME_BYTES))
}

macro_rules! get_int {
    ($bytes:expr, $off:expr, $ty:ty) => {{
        const N: usize = std::mem::size_of::<$ty>();
        let off = $off;
        let slice = $bytes.get(off..off + N).ok_or(Error::Corrupt {
            detail: "truncated packet".into(),
        })?;
        let mut buf = [0u8; N];
        buf.copy_from_slice(slice);
        (<$ty>::from_be_bytes(buf), off + N)
    }};
}

impl InstructionPacket {
    /// Total wire size in bytes.
    pub fn wire_size(&self) -> usize {
        instruction_packet_size(
            &self
                .operands
                .iter()
                .map(|o| o.data_page.len())
                .collect::<Vec<_>>(),
        )
    }

    /// Encode to wire bytes.
    ///
    /// # Errors
    /// Fails if a relation name exceeds [`RELATION_NAME_BYTES`].
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.wire_size());
        out.extend_from_slice(&self.ipid.to_be_bytes());
        out.extend_from_slice(&(self.wire_size() as u32).to_be_bytes());
        out.extend_from_slice(&self.query_id.to_be_bytes());
        out.extend_from_slice(&self.icid_sender.to_be_bytes());
        out.extend_from_slice(&self.icid_destination.to_be_bytes());
        out.push(u8::from(self.flush_when_done));
        out.push(self.opcode as u8);
        put_name(&mut out, &self.result_relation)?;
        out.extend_from_slice(&self.result_tuple_length.to_be_bytes());
        out.push(
            u8::try_from(self.operands.len()).map_err(|_| Error::ValueOutOfRange {
                detail: "more than 255 operands".into(),
            })?,
        );
        for op in &self.operands {
            put_name(&mut out, &op.relation_name)?;
            out.extend_from_slice(&op.tuple_length.to_be_bytes());
            out.extend_from_slice(&(op.data_page.len() as u32).to_be_bytes());
            out.extend_from_slice(&op.data_page);
        }
        debug_assert_eq!(out.len(), self.wire_size());
        Ok(out)
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<InstructionPacket> {
        let (ipid, off) = get_int!(bytes, 0, u16);
        let (len, off) = get_int!(bytes, off, u32);
        if len as usize != bytes.len() {
            return Err(Error::Corrupt {
                detail: format!("packet length {len} vs actual {}", bytes.len()),
            });
        }
        let (query_id, off) = get_int!(bytes, off, u16);
        let (icid_sender, off) = get_int!(bytes, off, u16);
        let (icid_destination, off) = get_int!(bytes, off, u16);
        let (flush, off) = get_int!(bytes, off, u8);
        let (op, off) = get_int!(bytes, off, u8);
        let (result_relation, n) = get_name(&bytes[off..])?;
        let off = off + n;
        let (result_tuple_length, off) = get_int!(bytes, off, u16);
        let (n_ops, mut off) = get_int!(bytes, off, u8);
        let mut operands = Vec::with_capacity(n_ops as usize);
        for _ in 0..n_ops {
            let (relation_name, n) = get_name(&bytes[off..])?;
            off += n;
            let (tuple_length, o2) = get_int!(bytes, off, u16);
            let (page_len, o3) = get_int!(bytes, o2, u32);
            let end = o3 + page_len as usize;
            let data_page = bytes
                .get(o3..end)
                .ok_or(Error::Corrupt {
                    detail: "truncated data page".into(),
                })?
                .to_vec();
            off = end;
            operands.push(OperandSection {
                relation_name,
                tuple_length,
                data_page,
            });
        }
        Ok(InstructionPacket {
            ipid,
            query_id,
            icid_sender,
            icid_destination,
            flush_when_done: flush != 0,
            opcode: Opcode::from_byte(op)?,
            result_relation,
            result_tuple_length,
            operands,
        })
    }
}

impl ResultPacket {
    /// Total wire size in bytes.
    pub fn wire_size(&self) -> usize {
        result_packet_size(self.data_page.len())
    }

    /// Encode to wire bytes.
    ///
    /// # Errors
    /// Fails if the relation name exceeds [`RELATION_NAME_BYTES`].
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.wire_size());
        out.extend_from_slice(&self.icid.to_be_bytes());
        out.extend_from_slice(&(self.wire_size() as u32).to_be_bytes());
        put_name(&mut out, &self.relation_name)?;
        out.extend_from_slice(&(self.data_page.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.data_page);
        debug_assert_eq!(out.len(), self.wire_size());
        Ok(out)
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<ResultPacket> {
        let (icid, off) = get_int!(bytes, 0, u16);
        let (len, off) = get_int!(bytes, off, u32);
        if len as usize != bytes.len() {
            return Err(Error::Corrupt {
                detail: format!("packet length {len} vs actual {}", bytes.len()),
            });
        }
        let (relation_name, n) = get_name(&bytes[off..])?;
        let off = off + n;
        let (page_len, off) = get_int!(bytes, off, u32);
        let data_page = bytes
            .get(off..off + page_len as usize)
            .ok_or(Error::Corrupt {
                detail: "truncated data page".into(),
            })?
            .to_vec();
        Ok(ResultPacket {
            icid,
            relation_name,
            data_page,
        })
    }
}

impl ControlPacket {
    /// Total wire size in bytes (fixed).
    pub fn wire_size(&self) -> usize {
        CONTROL_PACKET_SIZE
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CONTROL_PACKET_SIZE);
        out.extend_from_slice(&self.icid.to_be_bytes());
        out.extend_from_slice(&(CONTROL_PACKET_SIZE as u32).to_be_bytes());
        out.extend_from_slice(&self.ipid_sender.to_be_bytes());
        let (code, arg) = self.message.code_arg();
        out.extend_from_slice(&code.to_be_bytes());
        out.extend_from_slice(&arg.to_be_bytes());
        out
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<ControlPacket> {
        let (icid, off) = get_int!(bytes, 0, u16);
        let (len, off) = get_int!(bytes, off, u32);
        if len as usize != CONTROL_PACKET_SIZE || bytes.len() != CONTROL_PACKET_SIZE {
            return Err(Error::Corrupt {
                detail: "control packet has a fixed size".into(),
            });
        }
        let (ipid_sender, off) = get_int!(bytes, off, u16);
        let (code, off) = get_int!(bytes, off, u32);
        let (arg, _off) = get_int!(bytes, off, u32);
        Ok(ControlPacket {
            icid,
            ipid_sender,
            message: ControlMessage::from_code_arg(code, arg)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instruction() -> InstructionPacket {
        InstructionPacket {
            ipid: 7,
            query_id: 3,
            icid_sender: 1,
            icid_destination: 2,
            flush_when_done: true,
            opcode: Opcode::Join,
            result_relation: "tmp42".into(),
            result_tuple_length: 200,
            operands: vec![
                OperandSection {
                    relation_name: "emp".into(),
                    tuple_length: 100,
                    data_page: vec![0xAB; 500],
                },
                OperandSection {
                    relation_name: "dept".into(),
                    tuple_length: 100,
                    data_page: vec![0xCD; 300],
                },
            ],
        }
    }

    #[test]
    fn instruction_round_trip() {
        let p = sample_instruction();
        let bytes = p.encode().unwrap();
        assert_eq!(bytes.len(), p.wire_size());
        assert_eq!(InstructionPacket::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn instruction_size_formula() {
        let p = sample_instruction();
        assert_eq!(
            p.wire_size(),
            INSTRUCTION_HEADER_BYTES + 2 * OPERAND_HEADER_BYTES + 800
        );
        assert_eq!(instruction_packet_size(&[500, 300]), p.wire_size());
    }

    #[test]
    fn result_round_trip() {
        let p = ResultPacket {
            icid: 5,
            relation_name: "out".into(),
            data_page: (0..=255).collect(),
        };
        let bytes = p.encode().unwrap();
        assert_eq!(bytes.len(), result_packet_size(256));
        assert_eq!(ResultPacket::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn control_round_trip_all_messages() {
        for msg in [
            ControlMessage::Done,
            ControlMessage::RequestInner { index: 42 },
            ControlMessage::RequestMissed { index: 7 },
            ControlMessage::RequestOuter,
        ] {
            let p = ControlPacket {
                icid: 1,
                ipid_sender: 9,
                message: msg,
            };
            let bytes = p.encode();
            assert_eq!(bytes.len(), CONTROL_PACKET_SIZE);
            assert_eq!(ControlPacket::decode(&bytes).unwrap(), p);
        }
    }

    #[test]
    fn corrupt_packets_rejected() {
        let p = sample_instruction();
        let mut bytes = p.encode().unwrap();
        bytes.pop();
        assert!(InstructionPacket::decode(&bytes).is_err());
        assert!(ControlPacket::decode(&[1, 2, 3]).is_err());
        assert!(Opcode::from_byte(99).is_err());
    }

    #[test]
    fn long_relation_name_rejected() {
        let mut p = sample_instruction();
        p.result_relation = "waytoolongname".into();
        assert!(p.encode().is_err());
    }
}
