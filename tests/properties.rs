//! Property-based tests over the core substrates, checked by the seeded
//! case runner in `tests/cases`.

use memsentry_cases::{properties, Gen};

use memsentry_repro::aes::{
    decrypt_block, encrypt_block, DecKeySchedule, KeySchedule, RegionCipher,
};
use memsentry_repro::cpu::Machine;
use memsentry_repro::ir::{AluOp, CodeAddr, Cond, FuncId, FunctionBuilder, Inst, Program, Reg};
use memsentry_repro::memsentry::{HiddenRegion, SafeRegionAllocator};
use memsentry_repro::mmu::addr::SFI_MASK;
use memsentry_repro::mmu::{AddressSpace, PageFlags, Pkru, VirtAddr, PAGE_SIZE, SENSITIVE_BASE};
use memsentry_repro::passes::{AddressBasedPass, AddressKind, InstrumentMode, Pass};

/// Up to 400 characters of printable ASCII or newline, the regular
/// language `[ -~\n]{0,400}`.
fn printable_text(g: &mut Gen) -> String {
    let text = g.vec(0..401, |g| match g.range(0u8..96) {
        95 => '\n',
        c => char::from(b' ' + c),
    });
    String::from_iter(text)
}

properties! {
    /// AES block encryption round-trips for arbitrary keys and blocks.
    #[test]
    fn aes_block_roundtrip(g; key in g.bytes::<16>(), block in g.bytes::<16>()) {
        let ks = KeySchedule::expand(&key);
        let dk = DecKeySchedule::from_enc(&ks);
        let ct = encrypt_block(block, &ks);
        assert_eq!(decrypt_block(ct, &dk), block);
        // No fixed point for random inputs, overwhelmingly.
        assert_ne!(ct, block);
    }

    /// Region encryption round-trips for arbitrary contents and sizes.
    #[test]
    fn aes_region_roundtrip(g; key in g.bytes::<16>(), data in g.vec(1..32, |g| g.u8())) {
        let chunks = data.len();
        let mut region: Vec<u8> = data.iter().cycle().take(chunks * 16).copied().collect();
        let original = region.clone();
        let rc = RegionCipher::new(&key);
        rc.encrypt_region(&mut region);
        assert_ne!(&region, &original);
        rc.decrypt_region(&mut region);
        assert_eq!(&region, &original);
    }

    /// The two key-expansion implementations always agree.
    #[test]
    fn keygenassist_matches_fips_expansion(g; key in g.bytes::<16>()) {
        assert_eq!(
            KeySchedule::expand(&key),
            KeySchedule::expand_with_keygenassist(&key)
        );
    }

    /// The SFI mask confines every pointer below the partition boundary,
    /// and is the identity for pointers already below it.
    #[test]
    fn sfi_mask_invariants(g; ptr in g.u64()) {
        let masked = ptr & SFI_MASK;
        assert!(masked < SENSITIVE_BASE);
        if ptr <= SFI_MASK {
            assert_eq!(masked, ptr);
        }
    }

    /// Page tables: map-then-translate returns the mapped frame with the
    /// right page offset, for arbitrary user addresses. In a fresh space
    /// the root table is frame 1 and a mapped page takes its frame before
    /// the tables its walk creates, so the page gets frame 2.
    #[test]
    fn page_table_translate(g; vpn in g.range(0u64..(1 << 35)), offset in g.range(0u64..PAGE_SIZE)) {
        let mut space = AddressSpace::new();
        let va = VirtAddr(vpn * PAGE_SIZE + offset);
        space.map_region(va.page_base(), PAGE_SIZE, PageFlags::rw());
        assert_eq!(space.gpfn_of(va), Some(2));
        // The byte at `va` lands at its offset in that page.
        assert!(space.poke(va, &[0xa5]));
        let word = space.read_u64(VirtAddr(va.0 & !7)).unwrap();
        assert_eq!(word, 0xa5 << (8 * (offset % 8)));
        // Unmap removes it.
        space.unmap_region(va.page_base(), PAGE_SIZE);
        assert_eq!(space.gpfn_of(va), None);
    }

    /// pkru encode/decode: every (key, ad, wd) combination round-trips and
    /// permissions follow the bits.
    #[test]
    fn pkru_bits_roundtrip(g; key in g.range(0u8..16), ad in g.bool(), wd in g.bool()) {
        let mut p = Pkru::allow_all();
        p.set_access_disable(key, ad);
        p.set_write_disable(key, wd);
        assert_eq!(p.access_disabled(key), ad);
        assert_eq!(p.write_disabled(key), wd);
        assert_eq!(p.permits(key, false), !ad);
        assert_eq!(p.permits(key, true), !ad && !wd);
    }

    /// Safe-region allocations never overlap and always stay in the
    /// sensitive partition.
    #[test]
    fn safe_regions_disjoint(g; sizes in g.vec(1..20, |g| g.range(1u64..20_000))) {
        let mut alloc = SafeRegionAllocator::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for size in sizes {
            let r = alloc.alloc(size);
            assert!(r.base >= SENSITIVE_BASE);
            assert!(r.len >= size);
            for &(b, e) in &spans {
                assert!(r.base >= e || r.base + r.len <= b);
            }
            spans.push((r.base, r.base + r.len));
        }
    }

    /// Hidden regions stay inside the hiding range and are page aligned,
    /// for arbitrary seeds.
    #[test]
    fn hidden_region_placement(g; seed in g.u64(), len in g.range(1u64..10_000)) {
        let r = HiddenRegion::allocate(len, seed);
        assert_eq!(r.layout.base % PAGE_SIZE, 0);
        assert!(r.layout.base < SENSITIVE_BASE);
        assert!(r.layout.len >= len);
    }

    /// CodeAddr encoding is injective over realistic programs.
    #[test]
    fn code_addr_injective(g; f1 in g.range(0u32..1000), i1 in g.range(0u32..10_000), f2 in g.range(0u32..1000), i2 in g.range(0u32..10_000)) {
        let a = CodeAddr { func: FuncId(f1), index: i1 };
        let b = CodeAddr { func: FuncId(f2), index: i2 };
        assert_eq!(a.encode() == b.encode(), a == b);
        assert_eq!(CodeAddr::decode(a.encode()), Some(a));
    }

    /// The interpreter computes ALU chains exactly like a direct Rust
    /// evaluation (differential test against an oracle).
    #[test]
    fn interpreter_matches_alu_oracle(
        g;
        init in g.u64(),
        ops in g.vec(1..40, |g| (g.range(0u8..6), g.u64())),
    ) {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        b.push(Inst::MovImm { dst: Reg::Rax, imm: init });
        let mut expected = init;
        for (op, imm) in &ops {
            let (alu, f): (AluOp, fn(u64, u64) -> u64) = match op {
                0 => (AluOp::Add, u64::wrapping_add),
                1 => (AluOp::Sub, u64::wrapping_sub),
                2 => (AluOp::And, std::ops::BitAnd::bitand),
                3 => (AluOp::Or, std::ops::BitOr::bitor),
                4 => (AluOp::Xor, std::ops::BitXor::bitxor),
                _ => (AluOp::Mul, u64::wrapping_mul),
            };
            expected = f(expected, *imm);
            b.push(Inst::AluImm { op: alu, dst: Reg::Rax, imm: *imm });
        }
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        assert_eq!(m.run().expect_exit(), expected);
    }

    /// Checked memory writes round-trip through the full translation
    /// pipeline for arbitrary in-page offsets and values.
    #[test]
    fn address_space_rw_roundtrip(g; off in g.range(0u64..(PAGE_SIZE * 3 - 8)), value in g.u64()) {
        let mut s = AddressSpace::new();
        s.map_region(VirtAddr(0x40_0000), 3 * PAGE_SIZE, PageFlags::rw());
        s.write_u64(VirtAddr(0x40_0000 + off), value).unwrap();
        assert_eq!(s.read_u64(VirtAddr(0x40_0000 + off)).unwrap(), value);
    }

    /// Machine cycle accounting is monotone and positive for any program
    /// that retires at least one instruction.
    #[test]
    fn cycles_monotone(g; n in g.range(1u64..200)) {
        let mut p = Program::new();
        let mut b = FunctionBuilder::new("main");
        for i in 0..n {
            b.push(Inst::MovImm { dst: Reg::Rax, imm: i });
        }
        b.push(Inst::Halt);
        p.add_function(b.finish());
        let mut m = Machine::new(p);
        let mut last = 0.0;
        while m.step().is_ok() {
            assert!(m.cycles() >= last);
            last = m.cycles();
            if m.stats().instructions > n {
                break;
            }
        }
        assert!(last > 0.0);
    }
    /// Address-based instrumentation never changes the result of a benign
    /// program (differential test: baseline vs MPX vs dual-MPX vs SFI on
    /// randomly generated load/store/ALU programs).
    #[test]
    fn instrumentation_preserves_benign_semantics(
        g;
        ops in g.vec(1..60, |g| (g.range(0u8..5), g.range(0u64..400), g.u64())),
    ) {
        let build = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm { dst: Reg::Rbx, imm: 0x40_0000 });
            b.push(Inst::MovImm { dst: Reg::Rax, imm: 1 });
            for (op, slot, imm) in &ops {
                let offset = (slot * 8) as i64;
                match op {
                    0 => b.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset }),
                    1 => b.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset }),
                    2 => b.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rax, imm: *imm }),
                    3 => b.push(Inst::AluImm { op: AluOp::Xor, dst: Reg::Rax, imm: *imm }),
                    _ => b.push(Inst::Lea { dst: Reg::Rcx, base: Reg::Rbx, offset }),
                };
            }
            b.push(Inst::Halt);
            p.add_function(b.finish());
            p
        };
        let run = |p: Program| {
            let mut m = Machine::new(p);
            m.space.map_region(VirtAddr(0x40_0000), PAGE_SIZE, PageFlags::rw());
            m.run().expect_exit()
        };
        let baseline = run(build());
        for kind in [AddressKind::Mpx, AddressKind::MpxDual, AddressKind::Sfi] {
            let mut p = build();
            AddressBasedPass::new(kind, InstrumentMode::READ_WRITE).run(&mut p).unwrap();
            memsentry_repro::ir::verify(&p).unwrap();
            assert_eq!(run(p), baseline, "kind {:?}", kind);
        }
    }

    /// The workload generator is a pure function of its spec: identical
    /// specs produce bit-identical programs and cycle counts.
    #[test]
    fn workloads_are_deterministic(g; which in g.range(0usize..19), superblocks in g.range(1u32..4)) {
        use memsentry_repro::workloads::{Workload, WorkloadSpec, SPEC2006};
        let spec = WorkloadSpec { profile: SPEC2006[which], superblocks };
        let a = Workload::build(spec);
        let b = Workload::build(spec);
        assert_eq!(&a.program, &b.program);
        let cycles = |w: &Workload| {
            let mut m = Machine::new(w.program.clone());
            w.prepare(&mut m);
            m.run().expect_exit();
            m.cycles()
        };
        assert_eq!(cycles(&a), cycles(&b));
    }
    /// Restoring a machine mid-run and continuing yields bit-identical
    /// statistics to an uninterrupted run — the access pattern the fault
    /// campaign's injection sweep relies on (golden cases live in
    /// `tests/snapshot_restore.rs`).
    #[test]
    fn snapshot_restore_replays_bit_identically(g; which in g.range(0usize..19), boundary in g.range(1u64..400)) {
        use memsentry_repro::workloads::{Workload, WorkloadSpec, SPEC2006};
        let w = Workload::build(WorkloadSpec { profile: SPEC2006[which], superblocks: 1 });
        let mut m = Machine::new(w.program.clone());
        w.prepare(&mut m);
        for _ in 0..boundary {
            if m.is_halted() { break; }
            m.step().expect("clean run");
        }
        let snap = m.snapshot();
        m.run().expect_exit();
        let reference = (*m.stats(), m.cycles());
        m.restore(&snap);
        assert_eq!(m.stats().instructions, snap.instructions());
        m.run().expect_exit();
        assert_eq!((*m.stats(), m.cycles()), reference);
    }

    /// print -> parse round-trips arbitrary programs (fuzzed over the
    /// instruction space).
    #[test]
    fn listing_roundtrip(
        g;
        insts in g.vec(1..50, |g| (g.range(0u8..12), g.range(0usize..16), g.range(0usize..16), g.u32())),
        privileged_fn in g.bool(),
    ) {
        use memsentry_repro::ir::{parse_program, print::format_program, InstNode, Function};
        let reg = |i: usize| Reg::ALL[i];
        let mut f = Function::new("fuzzed");
        f.privileged = privileged_fn;
        for (k, a, b, imm) in &insts {
            let (a, b, imm) = (reg(*a), reg(*b), *imm as u64);
            let inst = match k {
                0 => Inst::MovImm { dst: a, imm },
                1 => Inst::Mov { dst: a, src: b },
                2 => Inst::Lea { dst: a, base: b, offset: imm as i64 % 4096 - 2048 },
                3 => Inst::Load { dst: a, addr: b, offset: (imm % 512) as i64 },
                4 => Inst::Store { src: a, addr: b, offset: (imm % 512) as i64 },
                5 => Inst::AluImm { op: AluOp::Add, dst: a, imm },
                6 => Inst::AluReg { op: AluOp::Xor, dst: a, src: b },
                7 => Inst::BndCu { bnd: (imm % 4) as u8, reg: a },
                8 => Inst::WrPkru { src: a },
                9 => Inst::VmFunc { eptp: (imm % 512) as u32 },
                10 => Inst::Syscall { nr: imm % 12 },
                _ => Inst::Nop,
            };
            f.body.push(InstNode { inst, privileged: imm % 3 == 0 });
        }
        f.body.push(InstNode::plain(Inst::Halt));
        let mut p = Program::new();
        p.add_function(f);
        let text = format_program(&p);
        let parsed = parse_program(&text).unwrap();
        assert_eq!(parsed, p);
    }
    /// The parser never panics on arbitrary input — it returns errors.
    #[test]
    fn parser_is_panic_free(g; text in printable_text(g)) {
        use memsentry_repro::ir::parse_program;
        let _ = parse_program(&text);
    }

    /// Every SPEC and server profile generates a program whose measured
    /// load/store mix tracks the profile within 20%.
    #[test]
    fn all_profiles_track_their_mix(g; which in g.range(0usize..22)) {
        use memsentry_repro::workloads::{Workload, WorkloadSpec, SERVERS, SPEC2006};
        let profile = if which < 19 { SPEC2006[which] } else { SERVERS[which - 19] };
        let w = Workload::build(WorkloadSpec { profile, superblocks: 12 });
        let mut m = Machine::new(w.program.clone());
        w.prepare(&mut m);
        m.run().expect_exit();
        let s = m.stats();
        let per_k = |x: u64| x as f64 * 1000.0 / s.instructions as f64;
        let loads = per_k(s.loads);
        assert!(
            (loads - f64::from(profile.loads_pk)).abs() / f64::from(profile.loads_pk) < 0.2,
            "{}: loads/k {} vs {}", profile.name, loads, profile.loads_pk
        );
        let stores = per_k(s.stores);
        assert!(
            (stores - f64::from(profile.stores_pk)).abs() / f64::from(profile.stores_pk) < 0.2,
            "{}: stores/k {} vs {}", profile.name, stores, profile.stores_pk
        );
    }
    /// The shadow-stack defense (under MPK) is semantics-preserving over
    /// random benign call trees of arbitrary shape.
    #[test]
    fn shadow_stack_preserves_random_call_trees(
        g;
        tree in g.vec(1..14, |g| g.range(0u8..3)),
    ) {
        use memsentry_repro::defenses::ShadowStack;
        use memsentry_repro::memsentry::{Application, MemSentry, Technique};
        use memsentry_repro::passes::Pass;
        use memsentry_repro::ir::FuncId;

        // Build a chain of functions; each either calls the next one 0, 1
        // or 2 times before returning, and bumps a counter in rbx.
        let n = tree.len();
        let mut p = Program::new();
        let mut main = FunctionBuilder::new("main");
        main.push(Inst::MovImm { dst: Reg::Rbx, imm: 0 });
        main.push(Inst::Call(FuncId(1)));
        main.push(Inst::Mov { dst: Reg::Rax, src: Reg::Rbx });
        main.push(Inst::Halt);
        p.add_function(main.finish());
        for (i, &calls) in tree.iter().enumerate() {
            let mut f = FunctionBuilder::new(format!("f{i}"));
            f.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rbx, imm: 1 });
            if i + 1 < n {
                for _ in 0..calls {
                    f.push(Inst::Call(FuncId(i as u32 + 2)));
                }
            }
            f.push(Inst::Ret);
            p.add_function(f.finish());
        }
        let baseline = {
            let mut m = Machine::new(p.clone());
            m.run().expect_exit()
        };
        let fw = MemSentry::new(Technique::Mpk, 1 << 16);
        let shadow = ShadowStack::new(fw.layout());
        let mut defended = p;
        shadow.run(&mut defended).unwrap();
        fw.instrument(&mut defended, Application::ProgramData).unwrap();
        let mut m = Machine::new(defended);
        fw.prepare_machine(&mut m).unwrap();
        fw.write_region(&mut m, 0, &(fw.layout().base + 8).to_le_bytes());
        assert_eq!(m.run().expect_exit(), baseline);
    }

    /// The event-horizon block executor (`Machine::run` /
    /// `Machine::run_until`) retires bit-identical statistics to driving
    /// the same machine one `step()` at a time, across random programs ×
    /// random event schedules — events landing on block boundaries, the
    /// first and last instruction, and past the halt (the in-crate seeded
    /// twin exhaustively sweeps every boundary; this fuzzes the space).
    #[test]
    fn horizon_execution_matches_stepping(
        g;
        ops in g.vec(1..50, |g| (g.range(0u8..6), g.range(0u64..64), g.u64())),
        events in g.vec(0..6, |g| (g.range(0u8..4), g.range(0u64..120))),
    ) {
        use memsentry_repro::cpu::{Event, EventAction, EventSchedule, RunOutcome, SignalPolicy};

        const SCRATCH: u64 = 0x20_0000;
        let build = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            for (op, slot, imm) in &ops {
                let offset = (slot * 8) as i64;
                match op {
                    0 => b.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset }),
                    1 => b.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset }),
                    2 => b.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rax, imm: *imm }),
                    // Masking marks rbx for the SFI dependency charge while
                    // keeping it a valid scratch address.
                    3 => b.push(Inst::AluImm { op: AluOp::And, dst: Reg::Rbx, imm: !0xfff | SCRATCH }),
                    4 => b.push(Inst::Call(FuncId(1))),
                    _ => b.push(Inst::Nop),
                };
            }
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut helper = FunctionBuilder::new("helper");
            helper.push(Inst::AluImm { op: AluOp::Add, dst: Reg::R9, imm: 1 });
            helper.push(Inst::Ret);
            p.add_function(helper.finish());
            let mut handler = FunctionBuilder::new("handler");
            handler.push(Inst::Load { dst: Reg::R10, addr: Reg::Rbx, offset: 0 });
            handler.push(Inst::Syscall { nr: memsentry_repro::cpu::kernel::nr::SIGRETURN });
            handler.push(Inst::Halt);
            p.add_function(handler.finish());
            let mut sibling = FunctionBuilder::new("sibling");
            sibling.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            sibling.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rax, imm: 1 });
            sibling.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::Halt);
            p.add_function(sibling.finish());
            p
        };
        let schedule = EventSchedule::new(
            events
                .iter()
                .map(|&(kind, at)| Event {
                    at,
                    action: match kind {
                        0 => EventAction::Signal,
                        1 => EventAction::Write { addr: SCRATCH + 16, value: at },
                        2 => EventAction::FailAllocs { count: 1 },
                        _ => EventAction::Preempt { to: 1, quantum: 3, scrub: at % 2 == 0 },
                    },
                })
                .collect(),
        );
        let machine = || {
            let mut m = Machine::new(build());
            m.space.map_region(VirtAddr(SCRATCH), PAGE_SIZE, PageFlags::rw());
            m.spawn_thread(FuncId(3), [0; 3]);
            m.set_signal_policy(SignalPolicy { handler: FuncId(2), scrub: false });
            m.set_event_schedule(schedule.clone());
            m
        };
        let mut fast = machine();
        let batched = fast.run();
        let mut slow = machine();
        let stepped = loop {
            match slow.step() {
                Ok(()) => {
                    if let Some(code) = slow.exit_code() {
                        break RunOutcome::Exited(code);
                    }
                }
                Err(t) => break RunOutcome::Trapped(t),
            }
        };
        assert_eq!(batched, stepped);
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.cycles().to_bits(), slow.cycles().to_bits());
        assert_eq!(fast.pending_events(), slow.pending_events());
        assert_eq!(fast.signal_depth(), slow.signal_depth());
    }

    /// How execution is driven is invisible: over random programs,
    /// random event schedules, and every address-based instrumentation
    /// flavour (whose mask/bound sequences exercise the fused
    /// superinstruction arms), a whole `run` (fused runs chained back to
    /// back), `run_until` with a two-instruction horizon at every other
    /// boundary (blocks entered mid-way and cut short), and the
    /// per-instruction stepper finish with identical outcomes, `Stats`,
    /// cycle bits, and full machine-state digests.
    #[test]
    fn threaded_engine_matches_stepping_under_events_and_instrumentation(
        g;
        ops in g.vec(1..50, |g| (g.range(0u8..7), g.range(0u64..64), g.u64())),
        events in g.vec(0..5, |g| (g.range(0u8..4), g.range(0u64..150))),
        flavour in g.range(0u8..4),
    ) {
        use memsentry_repro::cpu::{Event, EventAction, EventSchedule, RunOutcome, SignalPolicy};

        const SCRATCH: u64 = 0x20_0000;
        let build = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            for (op, slot, imm) in &ops {
                let offset = (slot * 8) as i64;
                match op {
                    0 => b.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset }),
                    1 => b.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset }),
                    2 => b.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rax, imm: *imm }),
                    3 => b.push(Inst::AluImm { op: AluOp::And, dst: Reg::Rbx, imm: !0xfff | SCRATCH }),
                    4 => b.push(Inst::Lea { dst: Reg::Rcx, base: Reg::Rbx, offset }),
                    5 => b.push(Inst::Call(FuncId(1))),
                    _ => b.push(Inst::Nop),
                };
            }
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut helper = FunctionBuilder::new("helper");
            helper.push(Inst::AluImm { op: AluOp::Add, dst: Reg::R9, imm: 1 });
            helper.push(Inst::Ret);
            p.add_function(helper.finish());
            let mut handler = FunctionBuilder::new("handler");
            handler.push(Inst::Load { dst: Reg::R10, addr: Reg::Rbx, offset: 0 });
            handler.push(Inst::Syscall { nr: memsentry_repro::cpu::kernel::nr::SIGRETURN });
            handler.push(Inst::Halt);
            p.add_function(handler.finish());
            let mut sibling = FunctionBuilder::new("sibling");
            sibling.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            sibling.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rax, imm: 1 });
            sibling.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::Halt);
            p.add_function(sibling.finish());
            match flavour {
                0 => {}
                1 => AddressBasedPass::new(AddressKind::Sfi, InstrumentMode::READ_WRITE)
                    .run(&mut p).unwrap(),
                2 => AddressBasedPass::new(AddressKind::Mpx, InstrumentMode::READ_WRITE)
                    .run(&mut p).unwrap(),
                _ => AddressBasedPass::new(AddressKind::MpxDual, InstrumentMode::READ_WRITE)
                    .run(&mut p).unwrap(),
            }
            p
        };
        let schedule = EventSchedule::new(
            events
                .iter()
                .map(|&(kind, at)| Event {
                    at,
                    action: match kind {
                        0 => EventAction::Signal,
                        1 => EventAction::Write { addr: SCRATCH + 16, value: at },
                        2 => EventAction::FailAllocs { count: 1 },
                        _ => EventAction::Preempt { to: 1, quantum: 3, scrub: at % 2 == 0 },
                    },
                })
                .collect(),
        );
        let machine = || {
            let mut m = Machine::new(build());
            m.space.map_region(VirtAddr(SCRATCH), PAGE_SIZE, PageFlags::rw());
            m.spawn_thread(FuncId(3), [0; 3]);
            m.set_signal_policy(SignalPolicy { handler: FuncId(2), scrub: false });
            m.set_event_schedule(schedule.clone());
            m
        };
        let mut whole = machine();
        let fast = whole.run();
        let mut cut = machine();
        let horizons = loop {
            let n = cut.stats().instructions;
            match cut.run_until(n + 2) {
                Ok(()) => {
                    if let Some(code) = cut.exit_code() {
                        break RunOutcome::Exited(code);
                    }
                }
                Err(t) => break RunOutcome::Trapped(t),
            }
        };
        assert_eq!(fast.clone(), horizons);
        let mut slow = machine();
        let stepped = loop {
            match slow.step() {
                Ok(()) => {
                    if let Some(code) = slow.exit_code() {
                        break RunOutcome::Exited(code);
                    }
                }
                Err(t) => break RunOutcome::Trapped(t),
            }
        };
        assert_eq!(fast, stepped);
        for other in [&cut, &slow] {
            assert_eq!(whole.stats(), other.stats());
            assert_eq!(whole.cycles().to_bits(), other.cycles().to_bits());
            assert_eq!(whole.state_digest(), other.state_digest());
        }
    }

    /// Storm schedules are as safe as one-shots: over random programs and
    /// random recurring/burst/compound stream specs, the machine never
    /// panics — every run ends in a normal exit or a typed trap — and
    /// one-instruction `run_until` horizons retire an identical storm to
    /// the per-instruction stepper, boundary-for-boundary: state digests
    /// are equal at every retired-instruction boundary, not just at the
    /// end.
    #[test]
    fn storms_never_panic_and_engines_agree(
        g;
        ops in g.vec(1..40, |g| (g.range(0u8..6), g.range(0u64..64), g.u64())),
        sig_period in g.range(1u64..24),
        pre_period in g.range(1u64..32),
        burst in (g.range(0u64..60), g.range(0u64..6), g.range(1u64..4)),
        delay in g.range(0u64..8),
        seed in g.u64(),
        depth_limit in g.range(1usize..6),
    ) {
        use memsentry_repro::cpu::{
            seeded_offsets, EventAction, EventSchedule, RunOutcome, SignalPolicy, StreamSource,
            TriggerKind,
        };

        const SCRATCH: u64 = 0x20_0000;
        let build = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            for (op, slot, imm) in &ops {
                let offset = (slot * 8) as i64;
                match op {
                    0 => b.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset }),
                    1 => b.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset }),
                    2 => b.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rax, imm: *imm }),
                    3 => b.push(Inst::AluImm { op: AluOp::And, dst: Reg::Rbx, imm: !0xfff | SCRATCH }),
                    4 => b.push(Inst::Call(FuncId(1))),
                    _ => b.push(Inst::Nop),
                };
            }
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut helper = FunctionBuilder::new("helper");
            helper.push(Inst::AluImm { op: AluOp::Add, dst: Reg::R9, imm: 1 });
            helper.push(Inst::Ret);
            p.add_function(helper.finish());
            let mut handler = FunctionBuilder::new("handler");
            handler.push(Inst::Load { dst: Reg::R10, addr: Reg::Rbx, offset: 0 });
            handler.push(Inst::Syscall { nr: memsentry_repro::cpu::kernel::nr::SIGRETURN });
            handler.push(Inst::Halt);
            p.add_function(handler.finish());
            let mut sibling = FunctionBuilder::new("sibling");
            sibling.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            sibling.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::Halt);
            p.add_function(sibling.finish());
            p
        };
        let jitter = seeded_offsets(seed, 2, 0, sig_period);
        let mut streams = vec![
            StreamSource::Every {
                period: sig_period,
                phase: jitter[0],
                limit: None,
                action: EventAction::Signal,
            },
            StreamSource::Every {
                period: pre_period,
                phase: jitter[1],
                limit: None,
                action: EventAction::Preempt { to: 1, quantum: 3, scrub: seed % 2 == 0 },
            },
            StreamSource::After {
                trigger: TriggerKind::Signal,
                delay,
                action: EventAction::Signal,
            },
            StreamSource::After {
                trigger: TriggerKind::Preempt,
                delay,
                action: EventAction::Write { addr: SCRATCH + 16, value: seed },
            },
        ];
        // count == 0 is "no burst" — Every with limit Some(0) is born
        // exhausted, which is itself worth covering.
        let (at, count, gap) = burst;
        streams.push(StreamSource::Every {
            period: gap,
            phase: at,
            limit: Some(count),
            action: EventAction::Signal,
        });
        let schedule = EventSchedule::with_streams(Vec::new(), streams);
        let machine = || {
            let mut m = Machine::new(build());
            m.space.map_region(VirtAddr(SCRATCH), PAGE_SIZE, PageFlags::rw());
            m.spawn_thread(FuncId(3), [0; 3]);
            m.set_signal_policy(SignalPolicy { handler: FuncId(2), scrub: false });
            m.set_signal_depth_limit(depth_limit);
            m.set_event_schedule(schedule.clone());
            m.set_fuel(5_000);
            m
        };
        let mut a = machine();
        let mut b = machine();
        // Reaching a RunOutcome at all IS the no-panic oracle; a typed
        // trap (reentrancy overflow, out of fuel) is a legitimate end.
        let _end = loop {
            assert_eq!(a.state_digest(), b.state_digest());
            if a.is_halted() {
                break RunOutcome::Exited(a.exit_code().unwrap_or(0));
            }
            let n = a.stats().instructions;
            let ra = a.run_until(n + 1);
            let rb = b.step();
            assert_eq!(ra.clone(), rb);
            if let Err(t) = ra {
                break RunOutcome::Trapped(t);
            }
        };
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.cycles().to_bits(), b.cycles().to_bits());
    }

    /// Quiescent snapshot/restore under a storm is bit-exact, and restore
    /// clears every piece of transient storm state — queued per-thread
    /// signals, handler depth, active preemption — so the rewound machine
    /// re-derives the storm's future from the reinstalled schedule alone:
    /// resuming from the snapshot finishes identically to a run that was
    /// never interrupted.
    #[test]
    fn restore_is_bit_exact_and_clears_storm_state(
        g;
        ops in g.vec(4..40, |g| (g.range(0u8..6), g.range(0u64..64), g.u64())),
        sig_period in g.range(1u64..16),
        pre_period in g.range(2u64..24),
        delay in g.range(0u64..6),
        seed in g.u64(),
    ) {
        use memsentry_repro::cpu::{
            EventAction, EventSchedule, SignalPolicy, StreamSource, TriggerKind,
        };

        const SCRATCH: u64 = 0x20_0000;
        let build = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            for (op, slot, imm) in &ops {
                let offset = (slot * 8) as i64;
                match op {
                    0 => b.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset }),
                    1 => b.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset }),
                    2 => b.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rax, imm: *imm }),
                    3 => b.push(Inst::AluImm { op: AluOp::And, dst: Reg::Rbx, imm: !0xfff | SCRATCH }),
                    4 => b.push(Inst::Call(FuncId(1))),
                    _ => b.push(Inst::Nop),
                };
            }
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut helper = FunctionBuilder::new("helper");
            helper.push(Inst::AluImm { op: AluOp::Add, dst: Reg::R9, imm: 1 });
            helper.push(Inst::Ret);
            p.add_function(helper.finish());
            let mut handler = FunctionBuilder::new("handler");
            handler.push(Inst::Load { dst: Reg::R10, addr: Reg::Rbx, offset: 0 });
            handler.push(Inst::Syscall { nr: memsentry_repro::cpu::kernel::nr::SIGRETURN });
            handler.push(Inst::Halt);
            p.add_function(handler.finish());
            let mut sibling = FunctionBuilder::new("sibling");
            sibling.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            sibling.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::Halt);
            p.add_function(sibling.finish());
            p
        };
        let schedule = EventSchedule::with_streams(
            Vec::new(),
            vec![
                StreamSource::Every {
                    period: sig_period,
                    phase: seed % sig_period,
                    limit: None,
                    action: EventAction::Signal,
                },
                StreamSource::Every {
                    period: pre_period,
                    phase: 1,
                    limit: None,
                    action: EventAction::Preempt { to: 1, quantum: 2, scrub: true },
                },
                StreamSource::After {
                    trigger: TriggerKind::Signal,
                    delay,
                    action: EventAction::Write { addr: SCRATCH + 16, value: seed },
                },
            ],
        );
        let machine = || {
            let mut m = Machine::new(build());
            m.space.map_region(VirtAddr(SCRATCH), PAGE_SIZE, PageFlags::rw());
            m.spawn_thread(FuncId(3), [0; 3]);
            m.set_signal_policy(SignalPolicy { handler: FuncId(2), scrub: false });
            m.set_event_schedule(schedule.clone());
            m.set_fuel(5_000);
            m
        };
        // Run the reference twin straight to its end.
        let mut twin = machine();
        let undisturbed = twin.run();
        // Run the probed machine to the first quiescent mid-storm
        // boundary, rewind from further downstream, and resume.
        let mut m = machine();
        let mut mark = None;
        loop {
            if m.is_halted() || m.run_until(m.stats().instructions + 1).is_err() {
                break;
            }
            if m.signal_depth() == 0 && !m.preempt_active() && m.stats().instructions >= sig_period
            {
                mark = Some((m.snapshot(), m.event_schedule().cloned(), m.state_digest()));
                break;
            }
        }
        if let Some((snap, sched, digest)) = mark {
            let _ = m.run_until(m.stats().instructions + 40);
            m.restore(&snap);
            if let Some(s) = sched {
                m.set_event_schedule(s);
            }
            assert_eq!(m.state_digest(), digest, "quiescent restore must be bit-exact");
            assert_eq!(m.signal_depth(), 0);
            assert!(!m.preempt_active());
            assert_eq!(m.queued_signals(), 0);
            assert_eq!(m.run(), undisturbed);
            assert_eq!(m.state_digest(), twin.state_digest());
            assert_eq!(m.stats(), twin.stats());
        }
    }

    /// Every technique's instrumentation is checker-clean on every
    /// workload profile and application: the isolation soundness analyses
    /// never false-positive on programs the shipped passes produce.
    /// (`instrument` already runs the checker internally; the explicit
    /// `check_program` call asserts the report on the final program.)
    #[test]
    fn instrumented_workloads_are_checker_clean(
        g;
        which in g.range(0usize..19),
        app in g.range(0usize..7),
        superblocks in g.range(1u32..3),
    ) {
        use memsentry_repro::check::{check_program, AddressPolicy, CheckPolicy};
        use memsentry_repro::memsentry::{Application, Category, MemSentry, Technique};
        use memsentry_repro::workloads::{Workload, WorkloadSpec, SPEC2006};

        let w = Workload::build(WorkloadSpec { profile: SPEC2006[which], superblocks });
        let application = Application::ALL[app];
        let techniques = [
            Technique::Sfi,
            Technique::Mpx,
            Technique::Mpk,
            Technique::Vmfunc,
            Technique::Crypt,
            Technique::Sgx,
            Technique::MprotectBaseline,
            Technique::PageTableSwitch,
            Technique::InfoHiding,
        ];
        for technique in techniques {
            let fw = MemSentry::new(technique, 4096);
            let mut p = w.program.clone();
            fw.instrument(&mut p, application).unwrap();
            let policy = if technique.category() == Category::AddressBased {
                let mode = application.address_mode();
                CheckPolicy::address_checked(AddressPolicy {
                    loads: mode.loads,
                    stores: mode.stores,
                })
            } else {
                CheckPolicy::universal()
            };
            let report = check_program(&p, &policy);
            assert!(
                report.is_clean(),
                "{technique} / {application:?}:\n{report}"
            );
        }
    }

    /// The interprocedural checker is monotone against the conservative
    /// every-call-is-hostile oracle (the old intraprocedural behavior):
    /// computing real per-function summaries only ever *removes* window
    /// and address findings, never adds them — fuzzed over random
    /// multi-function programs mixing blessed sequences, calls, kernel
    /// crossings and checked/unchecked accesses.
    #[test]
    fn summaries_only_remove_findings(
        g;
        funcs in g.vec(1..4, |g| g.vec(1..10, |g| (g.range(0u8..8), g.range(0u32..8)))),
    ) {
        use memsentry_repro::check::{address, window, AddressPolicy, Summaries};

        let n = funcs.len() as u32;
        let mut p = Program::new();
        for (fi, ops) in funcs.iter().enumerate() {
            let mut b = FunctionBuilder::new(format!("f{fi}"));
            for (k, x) in ops {
                match k {
                    0 => {
                        // Blessed MPK open sequence.
                        b.push(Inst::RdPkru { dst: Reg::R9 });
                        b.push(Inst::AluImm { op: AluOp::And, dst: Reg::R9, imm: !0xc });
                        b.push(Inst::WrPkru { src: Reg::R9 });
                        b.push(Inst::MFence);
                    }
                    1 => {
                        // Blessed MPK close sequence.
                        b.push(Inst::RdPkru { dst: Reg::R9 });
                        b.push(Inst::AluImm { op: AluOp::Or, dst: Reg::R9, imm: 0xc });
                        b.push(Inst::WrPkru { src: Reg::R9 });
                        b.push(Inst::MFence);
                    }
                    2 => { b.push(Inst::Call(FuncId(x % n))); }
                    3 => { b.push(Inst::Syscall { nr: u64::from(x % 4) }); }
                    4 => {
                        // SFI-checked store.
                        b.push(Inst::AluImm {
                            op: AluOp::And,
                            dst: Reg::R11,
                            imm: 0x3fff_ffff_ffff,
                        });
                        b.push(Inst::Store { src: Reg::Rax, addr: Reg::R11, offset: 0 });
                    }
                    5 => { b.push(Inst::Store { src: Reg::Rax, addr: Reg::R11, offset: 8 }); }
                    6 => { b.push(Inst::MovImm { dst: Reg::Rax, imm: u64::from(*x) }); }
                    _ => { b.push(Inst::Nop); }
                }
            }
            b.push(if fi == 0 { Inst::Halt } else { Inst::Ret });
            p.add_function(b.finish());
        }
        let computed = Summaries::compute(&p);
        let conservative = Summaries::conservative(&p);
        let with = |s: &Summaries| {
            let mut v = window::check_windows_with(&p, s);
            v.extend(address::check_addresses_with(&p, AddressPolicy::READ_WRITE, s));
            v.into_iter().map(|f| (f.func, f.index, f.kind)).collect::<Vec<_>>()
        };
        let refined = with(&computed);
        let oracle = with(&conservative);
        for k in &refined {
            assert!(
                oracle.contains(k),
                "finding {k:?} is absent under the conservative oracle"
            );
        }
    }

    /// print -> parse round-trips multi-function programs fuzzed over the
    /// interprocedural call shapes (direct and indirect calls, allocator
    /// calls, returns) the summary checker analyzes.
    #[test]
    fn call_shape_listing_roundtrip(
        g;
        funcs in g.vec(1..5, |g| g.vec(1..12, |g| (g.range(0u8..6), g.range(0usize..16), g.u32()))),
    ) {
        use memsentry_repro::ir::{parse_program, print::format_program, Function, InstNode};
        let n = funcs.len() as u32;
        let reg = |i: usize| Reg::ALL[i];
        let mut p = Program::new();
        for (fi, body) in funcs.iter().enumerate() {
            let mut f = Function::new(format!("f{fi}"));
            for (k, a, imm) in body {
                let inst = match k {
                    0 => Inst::Call(FuncId(imm % n)),
                    1 => Inst::CallIndirect { target: reg(*a) },
                    2 => Inst::Ret,
                    3 => Inst::Alloc { size: reg(*a) },
                    4 => Inst::Free { ptr: reg(*a) },
                    _ => Inst::Nop,
                };
                f.body.push(InstNode { inst, privileged: imm % 2 == 0 });
            }
            f.body.push(InstNode::plain(if fi == 0 { Inst::Halt } else { Inst::Ret }));
            p.add_function(f);
        }
        let text = format_program(&p);
        assert_eq!(parse_program(&text).unwrap(), p);
    }
}

properties! {
    /// The inline translation caches are invisible: over random looping
    /// programs whose op mix includes in-block space mutators (`wrpkru`,
    /// `vmfunc` EPT switches, `mprotect` syscalls — the instructions the
    /// protection techniques actually emit), random event storms
    /// (signals, thread preemptions, attacker writes), and every
    /// address-based instrumentation flavour, an IC-enabled machine and
    /// an `MSENTRY_NO_INLINE_CACHE=1` machine agree exactly. Three
    /// phases: (1) full batched `run`s — the only mode in which
    /// `exec_chain` gets a budget big enough to probe and warm the IC
    /// slots, so the loop's later trips revalidate warm entries right
    /// after an in-block mutation went by — compared on outcome, `Stats`,
    /// cycle bits and digest; (2) per-boundary lockstep with externally
    /// driven mutations between instructions (`mprotect`,
    /// `pkey_mprotect`, raw PKRU rewrites, `add_view`/`switch_view`,
    /// hypervisor-side EPT edits, TLB flushes), digests compared at every
    /// boundary; (3) `Recording::seek` — whose gap re-execution re-enters
    /// compiled blocks mid-stream with restore-orphaned slots — pinned to
    /// the exact digests of a linear no-IC run.
    #[test]
    fn inline_cache_is_invisible_under_mutation_storms(
        g;
        ops in g.vec(1..40, |g| (g.range(0u8..10), g.range(0u64..64), g.u64())),
        events in g.vec(0..4, |g| (g.range(0u8..3), g.range(0u64..120))),
        muts in g.vec(0..8, |g| (g.range(0u8..8), g.range(0u64..200))),
        probes in g.vec(1..6, |g| g.range(0u64..300)),
        flavour in g.range(0u8..4),
    ) {
        use memsentry_repro::cpu::{
            Event, EventAction, EventSchedule, MachineConfig, Recording, SignalPolicy,
        };
        use memsentry_repro::mmu::ept::EptEntry;
        use memsentry_repro::mmu::{EptSet, Prot};

        const SCRATCH: u64 = 0x20_0000;
        const SCRATCH2: u64 = 0x21_0000;
        let build = || {
            let mut p = Program::new();
            let mut b = FunctionBuilder::new("main");
            b.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            // A counted loop re-executes every compiled op, so IC slots
            // warm on trip one and must serve (or soundly refuse) hits on
            // the later trips that the mutations interleave with. `Rbp`
            // and `R12` are the live-across-instrumentation registers.
            b.push(Inst::MovImm { dst: Reg::Rbp, imm: 0 });
            b.push(Inst::MovImm { dst: Reg::R12, imm: 4 });
            let top = b.new_label();
            b.bind(top);
            for (op, slot, imm) in &ops {
                let offset = (slot * 8) as i64;
                match op {
                    0 => {
                        b.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset });
                    }
                    1 => {
                        b.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset });
                    }
                    2 => {
                        b.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rax, imm: *imm });
                    }
                    3 => {
                        b.push(Inst::AluImm { op: AluOp::And, dst: Reg::Rbx, imm: !0xfff | SCRATCH });
                    }
                    4 => {
                        b.push(Inst::Lea { dst: Reg::Rcx, base: Reg::Rbx, offset });
                    }
                    5 => {
                        b.push(Inst::Call(FuncId(1)));
                    }
                    6 => {
                        b.push(Inst::Nop);
                    }
                    7 => {
                        // In-block PKRU rewrite: toggles an unused key's
                        // bits, so access verdicts are unchanged but every
                        // warm IC entry's PKRU stamp goes stale mid-chain.
                        b.push(Inst::MovImm {
                            dst: Reg::Rcx,
                            imm: if slot % 2 == 0 { 0 } else { 0b11 << 30 },
                        });
                        b.push(Inst::WrPkru { src: Reg::Rcx });
                    }
                    8 => {
                        b.push(Inst::VmFunc { eptp: (slot % 2) as u32 });
                    }
                    _ => {
                        // In-block mprotect syscall on the page the
                        // program never touches: a pure generation bump.
                        b.push(Inst::MovImm { dst: Reg::Rdi, imm: SCRATCH2 });
                        b.push(Inst::MovImm { dst: Reg::Rsi, imm: PAGE_SIZE });
                        b.push(Inst::MovImm { dst: Reg::Rdx, imm: 2 });
                        b.push(Inst::Syscall { nr: memsentry_repro::cpu::kernel::nr::MPROTECT });
                    }
                };
            }
            b.push(Inst::AluImm { op: AluOp::Add, dst: Reg::Rbp, imm: 1 });
            b.push(Inst::JmpIf { cond: Cond::Ne, a: Reg::Rbp, b: Reg::R12, target: top });
            b.push(Inst::Halt);
            p.add_function(b.finish());
            let mut helper = FunctionBuilder::new("helper");
            helper.push(Inst::AluImm { op: AluOp::Add, dst: Reg::R9, imm: 1 });
            helper.push(Inst::Ret);
            p.add_function(helper.finish());
            let mut handler = FunctionBuilder::new("handler");
            handler.push(Inst::Load { dst: Reg::R10, addr: Reg::Rbx, offset: 0 });
            handler.push(Inst::Syscall { nr: memsentry_repro::cpu::kernel::nr::SIGRETURN });
            handler.push(Inst::Halt);
            p.add_function(handler.finish());
            let mut sibling = FunctionBuilder::new("sibling");
            sibling.push(Inst::MovImm { dst: Reg::Rbx, imm: SCRATCH });
            sibling.push(Inst::Load { dst: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::Store { src: Reg::Rax, addr: Reg::Rbx, offset: 8 });
            sibling.push(Inst::Halt);
            p.add_function(sibling.finish());
            match flavour {
                0 => {}
                1 => AddressBasedPass::new(AddressKind::Sfi, InstrumentMode::READ_WRITE)
                    .run(&mut p).unwrap(),
                2 => AddressBasedPass::new(AddressKind::Mpx, InstrumentMode::READ_WRITE)
                    .run(&mut p).unwrap(),
                _ => AddressBasedPass::new(AddressKind::MpxDual, InstrumentMode::READ_WRITE)
                    .run(&mut p).unwrap(),
            }
            p
        };
        let schedule = EventSchedule::new(
            events
                .iter()
                .map(|&(kind, at)| Event {
                    at,
                    action: match kind {
                        0 => EventAction::Signal,
                        1 => EventAction::Write { addr: SCRATCH + 16, value: at },
                        _ => EventAction::Preempt { to: 1, quantum: 3, scrub: at % 2 == 0 },
                    },
                })
                .collect(),
        );
        let machine = |inline_cache: bool| {
            let mut m = Machine::with_config(
                build(),
                MachineConfig { inline_cache, ..MachineConfig::default() },
            );
            m.space.map_region(VirtAddr(SCRATCH), PAGE_SIZE, PageFlags::rw());
            m.space.map_region(VirtAddr(SCRATCH2), PAGE_SIZE, PageFlags::rw());
            m.space.install_ept(EptSet::new(2, true));
            m.set_in_vm(true);
            m.set_syscall_passthrough(true);
            m.spawn_thread(FuncId(3), [0; 3]);
            m.set_signal_policy(SignalPolicy { handler: FuncId(2), scrub: false });
            m.set_event_schedule(schedule.clone());
            m.set_fuel(5_000);
            m
        };
        // Mutations are applied from outside the run, between retired
        // instructions, identically to both machines. Each either bumps
        // the mutation generation, rewrites PKRU, or rewrites memory the
        // program observes — the three ways a cached translation can go
        // stale.
        let apply = |m: &mut Machine, kind: u8, at: u64| match kind {
            0 => {
                m.space.mprotect(VirtAddr(SCRATCH), PAGE_SIZE, Prot::ReadWrite);
            }
            1 => {
                m.space.mprotect(VirtAddr(SCRATCH2), PAGE_SIZE, Prot::Read);
            }
            2 => {
                m.space.pkey_mprotect(VirtAddr(SCRATCH), PAGE_SIZE, 1);
            }
            3 => {
                // wrpkru toggling an unused key's bits: access verdicts
                // are unchanged but every cached PKRU stamp goes stale.
                let pkru = m.space.pkru;
                m.space.pkru = Pkru(pkru.0 ^ (0b11 << 30));
            }
            4 => {
                let v = m.space.add_view();
                m.space.switch_view(v);
            }
            5 => {
                if let Some(set) = m.space.ept_mut() {
                    if at.is_multiple_of(2) {
                        set.vmfunc_switch((at as usize / 2) % 2);
                    } else {
                        set.ept_mut(1).map(0x900 + at, EptEntry::identity(0x900 + at));
                    }
                }
            }
            6 => {
                m.space.flush_tlb();
            }
            _ => {
                let _ = m.space.write(VirtAddr(SCRATCH + 24), &at.to_le_bytes());
            }
        };
        // Phase 1: full batched runs, where the compiled chains actually
        // warm and revalidate the inline caches across loop trips.
        let mut fa = machine(true);
        let oa = fa.run();
        let mut fb = machine(false);
        assert_eq!(oa, fb.run());
        assert_eq!(fa.stats(), fb.stats());
        assert_eq!(fa.cycles().to_bits(), fb.cycles().to_bits());
        assert_eq!(fa.state_digest(), fb.state_digest());
        // Phase 2: per-boundary lockstep with external mutations.
        let mut a = machine(true);
        let mut b = machine(false);
        loop {
            assert_eq!(a.state_digest(), b.state_digest());
            if a.is_halted() {
                break;
            }
            let n = a.stats().instructions;
            for &(kind, at) in &muts {
                if at == n {
                    apply(&mut a, kind, at);
                    apply(&mut b, kind, at);
                }
            }
            let ra = a.run_until(n + 1);
            let rb = b.run_until(n + 1);
            assert_eq!(ra.clone(), rb);
            if ra.is_err() {
                break;
            }
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.cycles().to_bits(), b.cycles().to_bits());

        // Phase 3: seeks re-enter compiled blocks mid-stream after
        // `restore` orphaned every cache slot; each must land on the
        // exact digest the no-IC linear run retired at that boundary.
        let mut c = machine(true);
        let rec = Recording::capture(&mut c, 3, &[]);
        let mut d = machine(false);
        let mut digests = vec![d.state_digest()];
        loop {
            if d.is_halted() {
                break;
            }
            let n = d.stats().instructions;
            if d.run_until(n + 1).is_err() {
                break;
            }
            digests.push(d.state_digest());
        }
        assert_eq!(digests.len() as u64, rec.boundaries() + 1);
        for &p in &probes {
            let boundary = p % (rec.boundaries() + 1);
            assert!(rec.seek(&mut c, boundary).is_ok());
            assert_eq!(c.state_digest(), digests[boundary as usize]);
        }
    }
}
