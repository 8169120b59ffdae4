//! SEV-based VM migration (paper §4.3.6).
//!
//! The source firmware re-encrypts guest memory from `Kvek` to the
//! transport key and computes an integrity tag; the target firmware — and
//! only the target, thanks to the ECDH-wrapped keys — reverses the
//! process under a freshly generated `Kvek`. The hypervisors on both
//! sides move only ciphertext. `SEND_START` stops guest execution, which
//! is why the paper notes Fidelius does not support *live* migration.

use crate::fidelius::Fidelius;
use crate::lifecycle::{fidelius_mut, traced_phase};
use fidelius_hw::inject::{FaultAction, InjectPoint};
use fidelius_hw::{Gpa, PAGE_SIZE};
use fidelius_sev::firmware::SessionBlob;
use fidelius_sev::{GuestPolicy, Handle};
use fidelius_telemetry::{DenialReason, Event, FaultKind, InjectionOutcome};
use fidelius_trace::SpanKind;
use fidelius_xen::domain::{DomainId, DomainState};
use fidelius_xen::frontend::gplayout;
use fidelius_xen::{System, XenError};

/// An in-flight migrated VM: transport-encrypted memory plus the session
/// needed to receive it.
#[derive(Debug, Clone)]
pub struct MigrationPackage {
    /// (guest page number, transport ciphertext) for every populated page.
    pub pages: Vec<(u64, Vec<u8>)>,
    /// Wrapped transport keys and ECDH metadata.
    pub session: SessionBlob,
    /// The transport integrity tag from `SEND_FINISH`.
    pub tag: [u8; 32],
    /// Memory size of the guest, in pages.
    pub mem_pages: u64,
    /// How many pages the source sent (carried in the authenticated stream
    /// header in the real protocol). Fewer pages than declared means the
    /// stream was truncated in transit; the receiver refuses it before
    /// committing any resources.
    pub declared_pages: u64,
}

/// Sends `dom` off this system, targeting the platform whose PDH is
/// `target_pdh`. The domain is destroyed locally afterwards (the paper's
/// non-live flow: the guest stops at `SEND_START`).
///
/// # Errors
///
/// Requires a Fidelius-booted SEV guest; SEV protocol failures propagate.
pub fn migrate_out(
    sys: &mut System,
    dom: DomainId,
    target_pdh: &[u8; 32],
) -> Result<MigrationPackage, XenError> {
    sys.ensure_host()?;
    let handle = fidelius_mut(sys)?.sev_handle(dom).ok_or(XenError::BadDomainState(dom))?;
    let mem_pages = sys.xen.domain(dom)?.mem_pages();
    let session = traced_phase(sys, SpanKind::MigratePhase, "migrate:send_start", |sys| {
        Ok(sys.plat.firmware.send_start(handle, target_pdh)?)
    })?;
    let pages = traced_phase(sys, SpanKind::MigratePhase, "migrate:send_pages", |sys| {
        let mut pages = Vec::new();
        for p in 0..mem_pages {
            if let Some(frame) = sys.xen.domain(dom)?.frame_of(p) {
                let ct =
                    sys.plat.firmware.send_update_page(&mut sys.plat.machine, handle, frame, p)?;
                pages.push((p, ct));
            }
        }
        Ok(pages)
    })?;
    let tag = traced_phase(sys, SpanKind::MigratePhase, "migrate:send_finish", |sys| {
        let tag = sys.plat.firmware.send_finish(handle)?;
        sys.shutdown_guest(dom)?;
        Ok(tag)
    })?;
    let declared_pages = pages.len() as u64;
    let mut package = MigrationPackage { pages, session, tag, mem_pages, declared_pages };
    // Adversarial hook: the hypervisor carries the stream and may shorten
    // or flip it in transit. Both land here (the stream is the
    // hypervisor's to move); the receiver's checks decide the outcome, and
    // the source emits the predicted disposal so injection and disposal
    // pair up even across machines.
    if let Some(action) = sys.plat.machine.inject_at(InjectPoint::MigrateSend) {
        tamper_stream(sys, &mut package, action);
    }
    Ok(package)
}

/// Applies an in-transit stream fault to `package`, emitting the predicted
/// outcome on the source tracer.
fn tamper_stream(sys: &mut System, package: &mut MigrationPackage, action: FaultAction) {
    let trace = &sys.plat.machine.trace;
    match action {
        FaultAction::TruncateStream { keep } => {
            let len = package.pages.len() as u64;
            let k = keep % (len + 1);
            if k < len {
                package.pages.truncate(k as usize);
                trace.emit(Event::FaultOutcome {
                    kind: FaultKind::MigrationTruncate,
                    outcome: InjectionOutcome::FailClosed(DenialReason::MigrationStreamTruncated),
                });
            } else {
                trace.emit(Event::FaultOutcome {
                    kind: FaultKind::MigrationTruncate,
                    outcome: InjectionOutcome::Tolerated,
                });
            }
        }
        FaultAction::CorruptStream { index_hint, xor } => {
            if package.pages.is_empty() {
                trace.emit(Event::FaultOutcome {
                    kind: FaultKind::MigrationCorrupt,
                    outcome: InjectionOutcome::Tolerated,
                });
                return;
            }
            let i = index_hint as usize % package.pages.len();
            let ct = &mut package.pages[i].1;
            let b = index_hint as usize % ct.len();
            ct[b] ^= xor | 1;
            trace.emit(Event::FaultOutcome {
                kind: FaultKind::MigrationCorrupt,
                outcome: InjectionOutcome::FailClosed(DenialReason::MigrationStreamTampered),
            });
        }
        other => {
            trace.emit(Event::FaultOutcome {
                kind: other.kind(),
                outcome: InjectionOutcome::Tolerated,
            });
        }
    }
}

/// Receives a migrated VM on this system: creates a domain, restores the
/// memory under a fresh `Kvek`, verifies the tag and resumes the guest
/// (whose migrated memory already contains its page tables).
///
/// # Errors
///
/// Fails on the wrong target platform or a tampered package.
pub fn migrate_in(sys: &mut System, package: &MigrationPackage) -> Result<DomainId, XenError> {
    // Structural check before any resource is committed: a stream shorter
    // than the source declared was truncated in transit.
    if (package.pages.len() as u64) != package.declared_pages {
        sys.plat
            .machine
            .trace
            .emit(Event::Denial { reason: DenialReason::MigrationStreamTruncated });
        return Err(XenError::FailClosed(DenialReason::MigrationStreamTruncated));
    }
    let handle = traced_phase(sys, SpanKind::MigratePhase, "migrate:receive_start", |sys| {
        match sys.plat.firmware.receive_start(&package.session, GuestPolicy::default()) {
            Ok(h) => Ok(h),
            Err(fidelius_sev::SevError::SessionNonceReplayed) => {
                // Rollback on the SEND path: the hypervisor re-presents a
                // session an earlier successful receive already consumed
                // (e.g. to resurrect a pre-update snapshot of the guest).
                sys.plat
                    .machine
                    .trace
                    .emit(Event::Denial { reason: DenialReason::MigrationSessionReplayed });
                Err(XenError::FailClosed(DenialReason::MigrationSessionReplayed))
            }
            Err(e) => Err(e.into()),
        }
    })?;
    let dom = sys.xen.create_domain(&mut sys.plat, &mut *sys.guardian, package.mem_pages)?;
    // From here on the receive is transactional: any failure rolls the
    // half-built domain back (frames freed, firmware state decommissioned)
    // so a tampered stream cannot leak a zombie guest on the target.
    match traced_phase(sys, SpanKind::MigratePhase, "migrate:receive_body", |sys| {
        receive_body(sys, package, handle, dom)
    }) {
        Ok(()) => Ok(dom),
        Err(e) => {
            rollback_receive(sys, dom, handle);
            if matches!(e, XenError::Sev(_)) {
                sys.plat
                    .machine
                    .trace
                    .emit(Event::Denial { reason: DenialReason::MigrationStreamTampered });
            }
            Err(e)
        }
    }
}

/// The fallible phase of [`migrate_in`]: everything between domain
/// creation and the sealed, runnable guest.
fn receive_body(
    sys: &mut System,
    package: &MigrationPackage,
    handle: Handle,
    dom: DomainId,
) -> Result<(), XenError> {
    sys.xen.populate_all(&mut sys.plat, &mut *sys.guardian, dom)?;
    for (p, ct) in &package.pages {
        let frame = sys.xen.domain(dom)?.frame_of(*p).ok_or(XenError::OutOfMemory)?;
        sys.plat.firmware.receive_update_page(&mut sys.plat.machine, handle, ct, *p, frame)?;
    }
    sys.plat.firmware.receive_finish(handle, &package.tag)?;
    let asid = sys.xen.domain(dom)?.asid;
    sys.plat.firmware.activate(&mut sys.plat.machine, handle, asid)?;
    // Only Fidelius takes the handle into its sealed metadata; a
    // vanilla-firmware destination leaves it hypervisor-managed.
    if let Ok(f) = fidelius_mut(sys) {
        f.register_sev_handle(dom, handle);
    }

    // The migrated memory contains the guest's page tables; point the
    // VMCB at them and resume at the kernel entry.
    let gcr3 = Gpa(gplayout::PT_POOL_PAGE * PAGE_SIZE);
    let rip = gplayout::KERNEL_PAGE * PAGE_SIZE;
    sys.xen.init_vmcb(&mut sys.plat, dom, gcr3, rip, true)?;
    sys.xen.domain_mut(dom)?.state = DomainState::Ready;
    let d = sys.xen.domain(dom)?;
    sys.guardian.seal_guest(&mut sys.plat, d)?;
    Ok(())
}

/// Unwinds a failed receive: the domain (with its frames, grants and
/// events) and the firmware's transport context both go away. Best-effort
/// by design — the guardian's own teardown may already have decommissioned
/// the handle when it was registered before the failure.
fn rollback_receive(sys: &mut System, dom: DomainId, handle: Handle) {
    let _ = sys.xen.destroy_domain(&mut sys.plat, &mut *sys.guardian, dom);
    let _ = sys.plat.firmware.deactivate(&mut sys.plat.machine, handle);
    let _ = sys.plat.firmware.decommission(handle);
}

/// Convenience for tests/benches: a Fidelius system ready for migration.
pub fn protected_system(dram: u64, seed: u64) -> Result<System, XenError> {
    System::new(dram, seed, Box::new(Fidelius::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::boot_encrypted_guest;
    use fidelius_sev::GuestOwner;

    const DRAM: u64 = 32 * 1024 * 1024;

    #[test]
    fn migration_moves_guest_secrets_intact() {
        let mut src = protected_system(DRAM, 31).unwrap();
        let mut dst = protected_system(DRAM, 32).unwrap();

        let mut owner = GuestOwner::new(33);
        let image = owner.package_image(b"migratable kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 256).unwrap();

        // The guest stores a secret in its private heap.
        let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        src.gpa_write(dom, gpa, b"secret-to-travel", true).unwrap();
        src.ensure_host().unwrap();

        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        // Transport pages are ciphertext.
        let heap_ct = package
            .pages
            .iter()
            .find(|(p, _)| *p == gplayout::HEAP_PAGE)
            .map(|(_, ct)| ct.clone())
            .unwrap();
        assert_ne!(&heap_ct[..16], b"secret-to-travel");

        let new_dom = migrate_in(&mut dst, &package).unwrap();
        dst.ensure_guest(new_dom).unwrap();
        let mut back = [0u8; 16];
        dst.plat.machine.guest_read_gpa(gpa, &mut back, true).unwrap();
        assert_eq!(&back, b"secret-to-travel");
    }

    #[test]
    fn tampered_package_is_rejected() {
        let mut src = protected_system(DRAM, 41).unwrap();
        let mut dst = protected_system(DRAM, 42).unwrap();
        let mut owner = GuestOwner::new(43);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let mut package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        package.pages[3].1[100] ^= 0xFF;
        assert!(matches!(migrate_in(&mut dst, &package), Err(XenError::Sev(_))));
    }

    /// The hypervisor carries the stream, so it can also resize one page's
    /// ciphertext. A short or long chunk is a typed firmware error — not a
    /// panic — and the receive fails closed and rolls back like any other
    /// tamper, leaving room for the intact stream.
    #[test]
    fn resized_page_fails_closed_and_rolls_back() {
        let mut src = protected_system(DRAM, 44).unwrap();
        let mut dst = protected_system(DRAM, 45).unwrap();
        let mut owner = GuestOwner::new(46);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        src.gpa_write(dom, gpa, b"survives-resizes", true).unwrap();
        src.ensure_host().unwrap();
        let good = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

        let mut truncated = good.clone();
        truncated.pages[3].1.truncate(100);
        let mut lengthened = good.clone();
        lengthened.pages[3].1.push(0);
        for (bad, got) in [(truncated, 100), (lengthened, PAGE_SIZE as usize + 1)] {
            let denials_before = dst.plat.machine.trace.events().len();
            let err = migrate_in(&mut dst, &bad);
            assert!(
                matches!(
                    err,
                    Err(XenError::Sev(fidelius_sev::SevError::InvalidLength { got: g, expected }))
                        if g == got && expected == PAGE_SIZE as usize
                ),
                "expected typed length error, got {err:?}"
            );
            assert!(dst.xen.domains.values().all(|d| d.state == DomainState::Dead));
            assert!(dst.plat.machine.trace.events()[denials_before..].iter().any(|e| matches!(
                e.event,
                fidelius_telemetry::Event::Denial { reason: DenialReason::MigrationStreamTampered }
            )));
        }

        let new_dom = migrate_in(&mut dst, &good).unwrap();
        dst.ensure_guest(new_dom).unwrap();
        let mut back = [0u8; 16];
        dst.plat.machine.guest_read_gpa(gpa, &mut back, true).unwrap();
        assert_eq!(&back, b"survives-resizes");
    }

    #[test]
    fn truncated_stream_fails_closed_without_committing_resources() {
        let mut src = protected_system(DRAM, 61).unwrap();
        let mut dst = protected_system(DRAM, 62).unwrap();
        let mut owner = GuestOwner::new(63);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let gpa = Gpa(gplayout::HEAP_PAGE * PAGE_SIZE);
        src.gpa_write(dom, gpa, b"survives-retries", true).unwrap();
        src.ensure_host().unwrap();
        let good = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

        // The hypervisor drops the tail of the stream in transit.
        let mut short = good.clone();
        short.pages.truncate(short.pages.len() / 2);
        let doms_before = dst.xen.domains.len();
        let err = migrate_in(&mut dst, &short);
        assert!(
            matches!(err, Err(XenError::FailClosed(DenialReason::MigrationStreamTruncated))),
            "expected typed fail-closed, got {err:?}"
        );
        assert_eq!(dst.xen.domains.len(), doms_before, "no domain may be committed");
        assert!(dst.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            fidelius_telemetry::Event::Denial { reason: DenialReason::MigrationStreamTruncated }
        )));

        // Graceful degradation: the intact stream still lands afterwards.
        let new_dom = migrate_in(&mut dst, &good).unwrap();
        dst.ensure_guest(new_dom).unwrap();
        let mut back = [0u8; 16];
        dst.plat.machine.guest_read_gpa(gpa, &mut back, true).unwrap();
        assert_eq!(&back, b"survives-retries");
    }

    #[test]
    fn tampered_stream_rolls_back_partial_receive() {
        let mut src = protected_system(DRAM, 71).unwrap();
        let mut dst = protected_system(DRAM, 72).unwrap();
        let mut owner = GuestOwner::new(73);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let good = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        let mut bad = good.clone();
        bad.pages[3].1[100] ^= 0xFF;
        assert!(matches!(migrate_in(&mut dst, &bad), Err(XenError::Sev(_))));
        // Transactional rollback: every half-built domain is torn down and
        // the tamper is audited.
        assert!(dst.xen.domains.values().all(|d| d.state == DomainState::Dead));
        assert!(dst.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            fidelius_telemetry::Event::Denial { reason: DenialReason::MigrationStreamTampered }
        )));
        // The frames freed by the rollback suffice for the intact stream.
        let new_dom = migrate_in(&mut dst, &good).unwrap();
        assert!(dst.ensure_guest(new_dom).is_ok());
    }

    /// SEND-side rollback: once a package is admitted, replaying it must
    /// be refused with a typed reason — the hypervisor cannot resurrect a
    /// pre-migration snapshot of the guest on retrofitted firmware.
    #[test]
    fn migration_replay_refused_on_retrofit_firmware() {
        let mut src = protected_system(DRAM, 81).unwrap();
        let mut dst = protected_system(DRAM, 82).unwrap();
        let mut owner = GuestOwner::new(83);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

        let first = migrate_in(&mut dst, &package).unwrap();
        dst.ensure_guest(first).unwrap();
        dst.ensure_host().unwrap();

        let doms_before = dst.xen.domains.len();
        let err = migrate_in(&mut dst, &package);
        assert!(
            matches!(err, Err(XenError::FailClosed(DenialReason::MigrationSessionReplayed))),
            "expected typed fail-closed, got {err:?}"
        );
        assert_eq!(dst.xen.domains.len(), doms_before, "replay must not commit a domain");
        assert!(dst.plat.machine.trace.events().iter().any(|e| matches!(
            e.event,
            fidelius_telemetry::Event::Denial { reason: DenialReason::MigrationSessionReplayed }
        )));
    }

    /// The same replay sails through vanilla SEV firmware: no nonce
    /// ledger, so the stale session is accepted as often as the
    /// hypervisor presents it.
    #[test]
    fn migration_replay_accepted_on_vanilla_firmware() {
        let mut src = protected_system(DRAM, 84).unwrap();
        let mut dst = System::new_with_firmware(
            DRAM,
            85,
            fidelius_sev::FwMode::Vanilla,
            Box::new(fidelius_xen::guardian::Unprotected::new()),
        )
        .unwrap();
        let mut owner = GuestOwner::new(86);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();

        let first = migrate_in(&mut dst, &package).unwrap();
        let second = migrate_in(&mut dst, &package).unwrap();
        assert_ne!(first, second, "the replayed guest gets its own domain");
    }

    #[test]
    fn package_for_wrong_target_is_rejected() {
        let mut src = protected_system(DRAM, 51).unwrap();
        let dst = protected_system(DRAM, 52).unwrap();
        let mut third = protected_system(DRAM, 53).unwrap();
        let mut owner = GuestOwner::new(54);
        let image = owner.package_image(b"kernel", &src.plat.firmware.pdh_public());
        let dom = boot_encrypted_guest(&mut src, &image, 192).unwrap();
        let package = migrate_out(&mut src, dom, &dst.plat.firmware.pdh_public()).unwrap();
        // The hypervisor redirects the package to a colluding machine —
        // which cannot unwrap the transport keys.
        assert!(matches!(migrate_in(&mut third, &package), Err(XenError::Sev(_))));
    }
}
