//! End-to-end integration tests across the whole workspace, driven
//! through the `govscan` facade crate: generate a world, run the full
//! measurement pipeline, and check the study's invariants.

use std::sync::OnceLock;

use govscan_scanner::{ErrorCategory, StudyOutput, StudyPipeline};
use govscan_worldgen::{Posture, World, WorldConfig};

static STUDY: OnceLock<(World, StudyOutput)> = OnceLock::new();

fn study() -> &'static (World, StudyOutput) {
    STUDY.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(0xE2E));
        let out = StudyPipeline::new(&world).run();
        (world, out)
    })
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let world = World::generate(&WorldConfig::small(0xE2E));
    let out = StudyPipeline::new(&world).run();
    let (_, reference) = study();
    assert_eq!(out.final_list, reference.final_list);
    assert_eq!(out.scan.valid().count(), reference.scan.valid().count());
    assert_eq!(out.scan.invalid().count(), reference.scan.invalid().count());
}

#[test]
fn measured_outcomes_agree_with_generated_ground_truth() {
    // The scanner is blind to ground truth; this is the end-to-end check
    // that wire behaviour faithfully encodes generator intent.
    let (world, out) = study();
    let mut mismatches = Vec::new();
    let mut compared = 0;
    for r in out.scan.records() {
        let Some(truth) = world.record(&r.hostname) else {
            continue;
        };
        compared += 1;
        let ok = match &truth.posture {
            Posture::Unreachable => !r.available,
            Posture::HttpOnly => !r.available || !r.https.attempts(),
            Posture::ValidHttps { .. } => r.https.is_valid(),
            Posture::InvalidHttps { .. } => r.https.attempts() && !r.https.is_valid(),
        };
        if !ok {
            mismatches.push(r.hostname.clone());
        }
    }
    assert!(compared > 1000, "compared {compared}");
    let rate = mismatches.len() as f64 / compared as f64;
    assert!(
        rate < 0.02,
        "{} disagreements of {compared}: {:?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(5)]
    );
}

#[test]
fn injected_error_classes_survive_the_full_pipeline() {
    use govscan_worldgen::InjectedError as I;
    let (world, out) = study();
    let mut agreements = 0usize;
    let mut total = 0usize;
    for r in out.scan.records() {
        let Some(truth) = world.record(&r.hostname) else {
            continue;
        };
        let Posture::InvalidHttps { error } = &truth.posture else {
            continue;
        };
        let Some(measured) = r.https.error() else {
            continue;
        };
        let expected = match error {
            I::HostnameMismatch => ErrorCategory::HostnameMismatch,
            I::UnableLocalIssuer => ErrorCategory::UnableLocalIssuer,
            I::SelfSigned => ErrorCategory::SelfSigned,
            I::SelfSignedInChain => ErrorCategory::SelfSignedInChain,
            I::Expired => ErrorCategory::Expired,
            I::UnsupportedProtocol => ErrorCategory::UnsupportedProtocol,
            I::Timeout => ErrorCategory::TimedOut,
            I::Refused => ErrorCategory::ConnectionRefused,
            I::Reset => ErrorCategory::ConnectionReset,
            I::WrongVersion => ErrorCategory::WrongVersionNumber,
            I::AlertInternal => ErrorCategory::AlertInternalError,
            I::AlertHandshake => ErrorCategory::AlertHandshakeFailure,
            I::AlertProtoVersion => ErrorCategory::AlertProtocolVersion,
        };
        total += 1;
        if measured == expected {
            agreements += 1;
        }
    }
    assert!(total > 200, "invalid hosts measured: {total}");
    let rate = agreements as f64 / total as f64;
    assert!(
        rate > 0.98,
        "taxonomy agreement {rate} ({agreements}/{total})"
    );
}

#[test]
fn crawler_discovers_the_long_tail() {
    let (world, out) = study();
    // The final list must contain far more than the seed and cover most
    // of the reachable government web.
    let reachable_gov = world
        .gov_hosts
        .iter()
        .filter(|h| !matches!(world.records[*h].posture, Posture::Unreachable))
        .count();
    let coverage = out.scan.available().count() as f64 / reachable_gov as f64;
    assert!(coverage > 0.75, "coverage {coverage}");
}

#[test]
fn every_available_host_has_consistent_flags() {
    let (_, out) = study();
    for r in out.scan.records() {
        if r.available {
            assert!(r.http_200 || r.https_200, "{}", r.hostname);
            assert!(r.ip.is_some(), "{}", r.hostname);
        }
        if r.https.is_valid() {
            assert!(r.https.meta().is_some(), "{}", r.hostname);
        }
        if let Some(meta) = r.https.meta() {
            assert!(
                !meta.issuer.is_empty() || meta.self_issued,
                "{}",
                r.hostname
            );
            assert!(meta.chain_len >= 1, "{}", r.hostname);
        }
    }
}

#[test]
fn trust_store_choice_changes_verdicts() {
    use govscan_pki::trust::TrustStoreProfile;
    let (world, out) = study();
    // Microsoft trusts more roots than Apple, so scanning with the
    // Microsoft store can only increase the valid count.
    let ms = StudyPipeline::new(world)
        .with_trust_profile(TrustStoreProfile::Microsoft)
        .scan_list(&out.final_list);
    let apple_valid = out.scan.valid().count();
    let ms_valid = ms.valid().count();
    assert!(
        ms_valid >= apple_valid,
        "microsoft {ms_valid} >= apple {apple_valid}"
    );
}

#[test]
fn certificates_on_the_wire_are_real_der() {
    use govscan_net::TlsClientConfig;
    use govscan_pki::Certificate;
    // Pull chains off the wire and round-trip them through DER, like any
    // external tool could.
    let (world, out) = study();
    let client = TlsClientConfig::default();
    let mut checked = 0;
    for r in out.scan.valid().take(50) {
        let session = world
            .net
            .tls_connect(&r.hostname, &client)
            .expect("handshake");
        for cert in session.peer_chain.iter() {
            let parsed = Certificate::from_der(cert.to_der()).expect("wire certs parse");
            assert_eq!(&parsed, cert);
        }
        checked += 1;
    }
    assert!(checked > 10);
}
