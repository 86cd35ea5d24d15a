//! Execution statistics.
//!
//! The benchmark harnesses derive the paper's figures from these counters
//! plus the cycle total, and tests use them to check that instrumentation
//! actually executed (e.g. that a shadow-stack run performed the expected
//! number of domain switches).

use memsentry_mmu::diff::Walk;

/// Counters accumulated by the interpreter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Direct calls.
    pub calls: u64,
    /// Indirect calls.
    pub indirect_calls: u64,
    /// Returns.
    pub rets: u64,
    /// System calls.
    pub syscalls: u64,
    /// Hypercalls (`vmcall`, including converted syscalls in the VM).
    pub vmcalls: u64,
    /// EPT switches (`vmfunc`).
    pub vmfuncs: u64,
    /// `wrpkru` executions.
    pub wrpkrus: u64,
    /// MPX bound checks executed.
    pub bound_checks: u64,
    /// AES chunks encrypted or decrypted.
    pub aes_chunks: u64,
    /// Allocator calls (`malloc` + `free`).
    pub allocator_calls: u64,
    /// Enclave entries (`SgxEnter`).
    pub sgx_transitions: u64,
    /// Injected signals delivered (fault-injection engine).
    pub signals: u64,
    /// Injected forced preemptions (fault-injection engine).
    pub preemptions: u64,
    /// Injected events that fired but could not be delivered — a signal
    /// with no policy installed, a preemption into an invalid/halted/
    /// already-preempting target, an asynchronous write that missed
    /// unmapped memory. Silent drops read as "survived" in sweeps, so
    /// they are counted and surfaced by the CLI.
    pub dropped_events: u64,
    /// Total simulated cycles.
    pub cycles: f64,
}

impl ExecStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles / self.instructions as f64
        }
    }

    /// The statistics' part of the machine's state walk: every counter
    /// as `stats.<name>`, `cycles` by bit pattern.
    pub(crate) fn walk<W: Walk>(&self, other: &ExecStats, w: &mut W) -> Result<(), W::Stop> {
        let ExecStats {
            instructions,
            loads,
            stores,
            calls,
            indirect_calls,
            rets,
            syscalls,
            vmcalls,
            vmfuncs,
            wrpkrus,
            bound_checks,
            aes_chunks,
            allocator_calls,
            sgx_transitions,
            signals,
            preemptions,
            dropped_events,
            cycles,
        } = *self;
        for (name, a, b) in [
            ("instructions", instructions, other.instructions),
            ("loads", loads, other.loads),
            ("stores", stores, other.stores),
            ("calls", calls, other.calls),
            ("indirect_calls", indirect_calls, other.indirect_calls),
            ("rets", rets, other.rets),
            ("syscalls", syscalls, other.syscalls),
            ("vmcalls", vmcalls, other.vmcalls),
            ("vmfuncs", vmfuncs, other.vmfuncs),
            ("wrpkrus", wrpkrus, other.wrpkrus),
            ("bound_checks", bound_checks, other.bound_checks),
            ("aes_chunks", aes_chunks, other.aes_chunks),
            ("allocator_calls", allocator_calls, other.allocator_calls),
            ("sgx_transitions", sgx_transitions, other.sgx_transitions),
            ("signals", signals, other.signals),
            ("preemptions", preemptions, other.preemptions),
            ("dropped_events", dropped_events, other.dropped_events),
            ("cycles", cycles.to_bits(), other.cycles.to_bits()),
        ] {
            w.word(format_args!("stats.{name}"), a, b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_handles_zero() {
        assert_eq!(ExecStats::default().cpi(), 0.0);
        let s = ExecStats {
            instructions: 100,
            cycles: 70.0,
            ..Default::default()
        };
        assert!((s.cpi() - 0.7).abs() < 1e-12);
    }
}
