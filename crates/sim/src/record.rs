//! Execution records: capture the functional side of a run once, replay
//! the timing side under any scheduler.
//!
//! Functional execution — ALU semantics, SIMT reconvergence, address
//! generation, memory contents — is invariant across CTA policies, warp
//! policies, and core counts: only *timing* differs. A capture run logs,
//! per warp, the sequence of issued instructions (the program counter,
//! the guard-resolved execution mask, and for memory operations the
//! per-lane addresses) into an [`ExecRecord`]. A replay run then drives
//! the identical issue/scoreboard/memory timing pipeline from that record
//! without evaluating any semantics
//! (`Core::execute_one` in replay mode): registers and predicates exist
//! only as scoreboard bits, global and shared memory are never read or
//! written, and addresses come from the trace.
//!
//! Replay is *byte-identical* to direct execution: `SimStats`, telemetry
//! events and interval series, and (via [`ExecRecord::mem_hash`]) the
//! final memory content hash all match exactly, under any CTA policy,
//! warp policy, and fast-forward mode. The golden replay
//! suite (`tests/golden_replay.rs`) and the simcheck capture-replay
//! differential oracle enforce this.
//!
//! What replay may never read (the record is the *entire* functional
//! interface):
//!
//! * register or predicate **values** (`Warp::regs` / `Warp::preds`) —
//!   only the pending scoreboard bits;
//! * `GlobalMem` or `SharedMem` **data** — loads schedule timing from
//!   recorded addresses and never stage a functional read;
//! * the SIMT stack — control flow is the recorded step sequence.
//!
//! Records serialize to a compact little-endian binary stream (per-lane
//! addresses stored only for active lanes) so they can persist as
//! sibling files in the content-addressed result store, keyed by the
//! policy-independent prefix of the run's content key.

use crate::simt::LaneMask;
use gpgpu_isa::{KernelDescriptor, Pc, WARP_SIZE};
use std::io::{self, Read, Write};

/// Magic bytes opening a serialized record ("GPGPU Record v1").
pub const RECORD_MAGIC: &[u8; 8] = b"GPGRECv1";

/// Sentinel `addr_block` value for steps that carry no addresses.
pub const NO_ADDR_BLOCK: u32 = u32::MAX;

/// One issued warp-instruction in a capture run.
///
/// `pc` identifies the instruction (and with it the opcode class and the
/// source/destination scoreboard footprint, re-fetched from the kernel's
/// program at replay time); `exec_mask` is the active mask already
/// restricted by the instruction's guard predicate; `addr_block` points
/// at the per-lane effective addresses of global/shared memory
/// operations inside the owning [`WarpTrace`]'s flat address arena (the
/// coalescer and the bank-conflict model are the only consumers). The
/// arena layout keeps a step at 12 bytes and capture allocation-free per
/// step — the hot loops of both capture and replay stream over two
/// contiguous vectors instead of chasing one heap box per memory step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Program counter of the issued instruction.
    pub pc: Pc,
    /// Guard-resolved active lane mask at issue.
    pub exec_mask: LaneMask,
    /// Block index into [`WarpTrace::addrs`] (block `i` spans
    /// `addrs[i*32 .. (i+1)*32]`), or [`NO_ADDR_BLOCK`] for
    /// non-memory steps.
    pub addr_block: u32,
}

/// The issued-instruction sequence of one warp, in issue order. Warp
/// order within a CTA is architectural (warp 0 covers lanes 0..32), so
/// the trace is keyed by `warp_in_cta` and valid under any scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpTrace {
    /// Issued steps, first to last. The final step is always the one
    /// after which the warp retires in direct execution, so replay
    /// retires the warp exactly when the cursor reaches the end.
    pub steps: Vec<TraceStep>,
    /// Flat arena of 32-lane address blocks referenced by
    /// [`TraceStep::addr_block`]. Lanes outside the step's `exec_mask`
    /// are zero and never inspected.
    pub addrs: Vec<u64>,
}

impl WarpTrace {
    /// Appends one issued step, copying `addrs` into the arena when the
    /// instruction generated addresses.
    pub fn push_step(&mut self, pc: Pc, exec_mask: LaneMask, addrs: Option<&[u64; WARP_SIZE]>) {
        let addr_block = match addrs {
            None => NO_ADDR_BLOCK,
            Some(a) => {
                let block = (self.addrs.len() / WARP_SIZE) as u32;
                self.addrs.extend_from_slice(a);
                block
            }
        };
        self.steps.push(TraceStep { pc, exec_mask, addr_block });
    }

    /// The 32-lane address block of `step`, or `None` for non-memory
    /// steps. `step` must belong to this trace.
    pub fn addrs_of(&self, step: &TraceStep) -> Option<&[u64; WARP_SIZE]> {
        if step.addr_block == NO_ADDR_BLOCK {
            return None;
        }
        let base = step.addr_block as usize * WARP_SIZE;
        Some(
            self.addrs[base..base + WARP_SIZE]
                .try_into()
                .expect("exact block size"),
        )
    }
}

/// All warp traces of one CTA, indexed by `warp_in_cta`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtaRecord {
    /// Per-warp traces.
    pub warps: Vec<WarpTrace>,
}

/// All CTA records of one kernel, indexed by global CTA id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelRecord {
    /// Per-CTA records.
    pub ctas: Vec<CtaRecord>,
}

/// A complete execution record of one simulation: every warp's issued
/// instruction sequence, for every CTA of every kernel (indexed by
/// launch-order [`KernelId`](crate::sched_api::KernelId)), plus the
/// final global-memory content hash observed at capture time.
///
/// The record is the policy-independent functional artifact: one capture
/// re-times under any CTA policy, warp policy, or core count. The carried
/// `mem_hash` stands in for the final memory contents on replay runs
/// (which never touch memory data).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecRecord {
    /// Per-kernel records, indexed by `KernelId.0` (launch order).
    pub kernels: Vec<KernelRecord>,
    /// `GlobalMem::content_hash()` of the capture run's final memory.
    pub mem_hash: u64,
}

impl ExecRecord {
    /// The trace of one warp, by its policy-invariant coordinates.
    ///
    /// # Panics
    ///
    /// Panics when the record does not cover the requested warp — the
    /// record was captured from a different workload/scale than the
    /// replay run. [`check_covers`](Self::check_covers) rules this out
    /// before a record from outside the process is replayed.
    pub fn warp_trace(&self, kernel: usize, cta_id: u64, warp_in_cta: u32) -> &WarpTrace {
        &self.kernels[kernel].ctas[cta_id as usize].warps[warp_in_cta as usize]
    }

    /// Checks that the record has the shape of a run of `kernels` (in
    /// launch order): one kernel record per kernel, one CTA record per
    /// CTA of its grid, one non-empty trace per warp of a CTA, and no pc
    /// past the end of the kernel's program. Replay indexes the record by
    /// exactly these coordinates, so a record that decodes but fails the
    /// check must be treated as corrupt.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch found.
    pub fn check_covers(&self, kernels: &[KernelDescriptor]) -> Result<(), String> {
        if self.kernels.len() != kernels.len() {
            return Err(format!(
                "{} kernel records for {} kernels",
                self.kernels.len(),
                kernels.len()
            ));
        }
        for (k, (rec, desc)) in self.kernels.iter().zip(kernels).enumerate() {
            if rec.ctas.len() as u64 != desc.cta_count() {
                return Err(format!(
                    "kernel {k}: {} CTA records for a grid of {}",
                    rec.ctas.len(),
                    desc.cta_count()
                ));
            }
            let warps = desc.warps_per_cta() as usize;
            let program_len = desc.program().len();
            for (c, cta) in rec.ctas.iter().enumerate() {
                if cta.warps.len() != warps {
                    return Err(format!(
                        "kernel {k} CTA {c}: {} warp traces for {warps} warps",
                        cta.warps.len()
                    ));
                }
                for (w, trace) in cta.warps.iter().enumerate() {
                    if trace.steps.is_empty() {
                        return Err(format!("kernel {k} CTA {c} warp {w}: empty trace"));
                    }
                    if let Some(s) = trace.steps.iter().find(|s| s.pc as usize >= program_len) {
                        return Err(format!(
                            "kernel {k} CTA {c} warp {w}: pc {} past a {program_len}-instruction program",
                            s.pc
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total issued warp-instructions across the whole record.
    pub fn total_steps(&self) -> u64 {
        self.kernels
            .iter()
            .flat_map(|k| &k.ctas)
            .flat_map(|c| &c.warps)
            .map(|w| w.steps.len() as u64)
            .sum()
    }

    /// Serializes the record as a compact little-endian binary stream.
    /// Per-lane addresses are stored only for lanes in the execution
    /// mask; inactive lanes decode back to zero (they are never read).
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(RECORD_MAGIC)?;
        out.write_all(&self.mem_hash.to_le_bytes())?;
        out.write_all(&(self.kernels.len() as u32).to_le_bytes())?;
        for k in &self.kernels {
            out.write_all(&(k.ctas.len() as u32).to_le_bytes())?;
            for c in &k.ctas {
                out.write_all(&(c.warps.len() as u32).to_le_bytes())?;
                for w in &c.warps {
                    out.write_all(&(w.steps.len() as u32).to_le_bytes())?;
                    for s in &w.steps {
                        out.write_all(&s.pc.to_le_bytes())?;
                        let mask = s.exec_mask;
                        let addrs = w.addrs_of(s);
                        // Tag bit 0 of a flags byte: addresses present.
                        out.write_all(&[u8::from(addrs.is_some())])?;
                        out.write_all(&mask.to_le_bytes())?;
                        if let Some(addrs) = addrs {
                            for lane in 0..WARP_SIZE {
                                if mask & (1 << lane) != 0 {
                                    out.write_all(&addrs[lane].to_le_bytes())?;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Decodes a record serialized by [`write_to`](Self::write_to).
    /// Returns `InvalidData` on a bad magic, a truncated stream, or
    /// implausible section counts.
    pub fn read_from<R: Read>(inp: &mut R) -> io::Result<ExecRecord> {
        let mut magic = [0u8; 8];
        inp.read_exact(&mut magic)?;
        if &magic != RECORD_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an execution record (bad magic)",
            ));
        }
        let mem_hash = read_u64(inp)?;
        let nk = read_len(inp)?;
        let mut kernels = prealloc(nk);
        for _ in 0..nk {
            let nc = read_len(inp)?;
            let mut ctas = prealloc(nc);
            for _ in 0..nc {
                let nw = read_len(inp)?;
                let mut warps = prealloc(nw);
                for _ in 0..nw {
                    let ns = read_len(inp)?;
                    let mut trace = WarpTrace {
                        steps: prealloc(ns),
                        addrs: Vec::new(),
                    };
                    for _ in 0..ns {
                        let pc = read_u32(inp)?;
                        let mut flags = [0u8; 1];
                        inp.read_exact(&mut flags)?;
                        let exec_mask = read_u32(inp)?;
                        let addrs = if flags[0] != 0 {
                            let mut a = [0u64; WARP_SIZE];
                            for lane in 0..WARP_SIZE {
                                if exec_mask & (1 << lane) != 0 {
                                    a[lane] = read_u64(inp)?;
                                }
                            }
                            Some(a)
                        } else {
                            None
                        };
                        reserve_next(&mut trace.steps, ns);
                        trace.push_step(pc, exec_mask, addrs.as_ref());
                    }
                    reserve_next(&mut warps, nw);
                    warps.push(trace);
                }
                reserve_next(&mut ctas, nc);
                ctas.push(CtaRecord { warps });
            }
            reserve_next(&mut kernels, nk);
            kernels.push(KernelRecord { ctas });
        }
        Ok(ExecRecord { kernels, mem_hash })
    }
}

/// A vector for a section the stream says holds `n` elements. Counts come
/// from the stream itself, so at most 64 KiB is reserved up front: a
/// truncated or corrupt stream cannot claim memory its bytes do not back.
/// Longer sections grow through [`reserve_next`].
fn prealloc<T>(n: usize) -> Vec<T> {
    const PREALLOC_BYTES: usize = 64 << 10;
    Vec::with_capacity(n.min(PREALLOC_BYTES / std::mem::size_of::<T>().max(1)))
}

/// Makes room for one more element of a section of `total` elements
/// (`v.len() < total`). Capacity at most doubles, so every reservation is
/// backed by elements already decoded, and never passes `total`, so a
/// complete section ends with capacity exactly `total`.
fn reserve_next<T>(v: &mut Vec<T>, total: usize) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len().clamp(1, total - v.len()));
    }
}

/// Bounds section counts (contents are still length-checked by
/// `read_exact`).
fn read_len<R: Read>(inp: &mut R) -> io::Result<usize> {
    let n = read_u32(inp)? as usize;
    const LIMIT: usize = 1 << 28;
    if n > LIMIT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "implausible section count in execution record",
        ));
    }
    Ok(n)
}

fn read_u32<R: Read>(inp: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    inp.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(inp: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    inp.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExecRecord {
        let mut addrs = [0u64; WARP_SIZE];
        addrs[0] = 0x1000;
        addrs[3] = 0x2008;
        let mut traced = WarpTrace::default();
        traced.push_step(0, 0xffff_ffff, None);
        traced.push_step(1, 0b1001, Some(&addrs));
        traced.push_step(2, 0xffff_ffff, None);
        ExecRecord {
            kernels: vec![
                KernelRecord {
                    ctas: vec![
                        CtaRecord {
                            warps: vec![traced, WarpTrace::default()],
                        },
                        CtaRecord { warps: vec![WarpTrace::default()] },
                    ],
                },
                KernelRecord { ctas: vec![] },
            ],
            mem_hash: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn check_covers_rejects_every_shape_mismatch() {
        use gpgpu_isa::dsl::DslKernel;
        use gpgpu_isa::Dim2;
        let mut k = DslKernel::new("shape", Dim2::x(64));
        k.movi(1u64);
        let prog = std::sync::Arc::new(k.compile().unwrap());
        let len = prog.len() as Pc;
        // Two CTAs of two warps each.
        let desc = KernelDescriptor::builder(prog, Dim2::x(2), Dim2::x(64))
            .build()
            .unwrap();
        let mut trace = WarpTrace::default();
        for pc in 0..len {
            trace.push_step(pc, u32::MAX, None);
        }
        let cta = CtaRecord {
            warps: vec![trace.clone(), trace],
        };
        let good = ExecRecord {
            kernels: vec![KernelRecord {
                ctas: vec![cta.clone(), cta],
            }],
            mem_hash: 0,
        };
        let kernels = [desc];
        assert_eq!(good.check_covers(&kernels), Ok(()));

        let mut bad: Vec<ExecRecord> = Vec::new();
        let mut edit = |f: &dyn Fn(&mut ExecRecord)| {
            let mut r = good.clone();
            f(&mut r);
            bad.push(r);
        };
        edit(&|r| r.kernels.clear());
        edit(&|r| r.kernels[0].ctas.truncate(1));
        edit(&|r| r.kernels[0].ctas[1].warps.truncate(1));
        edit(&|r| r.kernels[0].ctas[1].warps[1].steps.clear());
        edit(&|r| r.kernels[0].ctas[0].warps[1].steps[0].pc = len);
        for r in &bad {
            assert!(r.check_covers(&kernels).is_err(), "{r:?}");
        }
    }

    #[test]
    fn arena_blocks_resolve_per_step() {
        let rec = sample();
        let trace = rec.warp_trace(0, 0, 0);
        assert_eq!(trace.addrs_of(&trace.steps[0]), None);
        let block = trace.addrs_of(&trace.steps[1]).expect("memory step");
        assert_eq!(block[0], 0x1000);
        assert_eq!(block[3], 0x2008);
        assert_eq!(trace.addrs_of(&trace.steps[2]), None);
        assert_eq!(trace.addrs.len(), WARP_SIZE);
    }

    #[test]
    fn record_round_trips_through_binary() {
        let rec = sample();
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let back = ExecRecord::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.total_steps(), 3);
        assert_eq!(back.warp_trace(0, 0, 0).steps.len(), 3);
    }

    #[test]
    fn long_sections_decode_to_exact_capacity() {
        // Past the up-front reservation a section grows while decoding,
        // yet must end as tight as an exact reservation would leave it.
        let mut long = WarpTrace::default();
        for pc in 0..20_000 {
            long.push_step(pc, 1, None);
        }
        let rec = ExecRecord {
            kernels: vec![KernelRecord {
                ctas: vec![CtaRecord { warps: vec![long] }],
            }],
            mem_hash: 7,
        };
        let mut buf = Vec::new();
        rec.write_to(&mut buf).unwrap();
        let back = ExecRecord::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, rec);
        let steps = &back.warp_trace(0, 0, 0).steps;
        assert_eq!(steps.capacity(), steps.len());
    }

    #[test]
    fn masked_out_lanes_are_not_stored() {
        let rec = sample();
        let mut full = Vec::new();
        rec.write_to(&mut full).unwrap();
        // The 2-lane address step stores 2 u64s, not 32: the stream is
        // far smaller than a dense encoding would be.
        let dense_step = 4 + 1 + 4 + 32 * 8;
        assert!(full.len() < RECORD_MAGIC.len() + 8 + 4 * 16 + dense_step);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf[0] ^= 0xff;
        let err = ExecRecord::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(ExecRecord::read_from(&mut buf.as_slice()).is_err());
    }
}
