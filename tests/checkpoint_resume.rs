//! Checkpoint/resume determinism: the property the durable campaign
//! path (`--checkpoint` / `--resume` on `swiftdir-fuzz` and
//! `swiftdir-explore`) stakes everything on is that a campaign killed at
//! an arbitrary instant and resumed finishes with a final digest set
//! **bit-identical** to an uninterrupted run, at any thread count.
//!
//! Two layers are pinned here:
//!
//! * the *journal* layer — resuming from a `swiftdir.ckpt.v1` file cut
//!   at every unit boundary (and with a torn tail) reconverges;
//! * the *cancellation* layer — a campaign stopped by a live
//!   [`CancelToken`] mid-run leaves a journal that resumes to the same
//!   digest set whether the finisher runs 1 or 4 threads.
//!
//! The process layer — a real `swiftdir-fuzz --checkpoint` run
//! SIGKILLed mid-campaign and finished with `--resume` — is
//! `scripts/kill_resume_smoke.sh`.

use std::path::{Path, PathBuf};

use swiftdir::coherence::ProtocolKind;
use swiftdir::core::diff::tiny_config;
use swiftdir::core::{
    contended_stream, explore_grid_digest, fuzz_grid_digest, run_explore_campaign_resumable,
    run_fuzz_campaign_resumable, CancelToken, Checkpoint, CheckpointWriter, CkptHeader,
    ExploreConfig, ExploreUnit, FuzzConfig,
};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swiftdir-ckptres-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 2 protocols x 4 seeds at 40 ops: small enough to cut at every
/// boundary, big enough that multi-threaded claims interleave.
fn fuzz_grid() -> Vec<FuzzConfig> {
    [ProtocolKind::SwiftDir, ProtocolKind::Mesi]
        .into_iter()
        .flat_map(|p| {
            (0..4u64).map(move |seed| {
                let mut cfg = FuzzConfig::new(seed, p);
                cfg.ops = 40;
                cfg
            })
        })
        .collect()
}

fn fuzz_header(grid: &[FuzzConfig]) -> CkptHeader {
    CkptHeader {
        kind: "fuzz".to_string(),
        campaign: "fuzz".to_string(),
        config_digest: fuzz_grid_digest(grid),
        total: grid.len() as u64,
    }
}

/// Journals a full uninterrupted run into `path`; returns its digest set.
fn fuzz_baseline(grid: &[FuzzConfig], path: &Path) -> u64 {
    let mut w = CheckpointWriter::create(path, &fuzz_header(grid)).unwrap();
    let out =
        run_fuzz_campaign_resumable(grid, Some(2), None, Some(&mut w), Vec::new(), None).unwrap();
    assert!(out.complete() && !out.cancelled);
    assert_eq!(out.fresh, grid.len());
    out.digest_set_fnv()
}

#[test]
fn fuzz_resume_from_every_cut_point_matches_the_uninterrupted_run() {
    let dir = tempdir("fuzz-cuts");
    let grid = fuzz_grid();
    let full_path = dir.join("full.ckpt");
    let want = fuzz_baseline(&grid, &full_path);

    let journal = std::fs::read_to_string(&full_path).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines.len(), 1 + grid.len(), "header plus one line per unit");

    for cut in 0..=grid.len() {
        // Rebuild the journal a kill would have left: the header, the
        // first `cut` durable unit lines, and (on odd cuts) a torn
        // fragment of the next line that repair must drop.
        let cut_path = dir.join(format!("cut{cut}.ckpt"));
        let mut text: String = lines[..=cut].join("\n");
        text.push('\n');
        if cut % 2 == 1 && cut < grid.len() {
            text.push_str(&lines[cut + 1][..lines[cut + 1].len() / 2]);
        }
        std::fs::write(&cut_path, text).unwrap();

        let (mut w, resumed) = CheckpointWriter::resume(&cut_path, &fuzz_header(&grid)).unwrap();
        assert_eq!(resumed.len(), cut, "torn tail must not count as durable");
        let out =
            run_fuzz_campaign_resumable(&grid, Some(2), None, Some(&mut w), resumed, None).unwrap();
        drop(w);
        assert!(out.complete(), "cut {cut} did not finish the grid");
        assert_eq!((out.resumed, out.fresh), (cut, grid.len() - cut));
        assert_eq!(
            out.digest_set_fnv(),
            want,
            "cut {cut} diverged from the uninterrupted digest set"
        );
        // The healed journal is now itself a complete record.
        let ckpt = Checkpoint::load(&cut_path).unwrap().unwrap();
        assert!(!ckpt.torn);
        assert_eq!(ckpt.digest_set_fnv(), want);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_campaign_cancelled_at_a_random_instant_resumes_identically() {
    let dir = tempdir("fuzz-kill");
    let grid = fuzz_grid();
    let want = fuzz_baseline(&grid, &dir.join("full.ckpt"));

    // "Kill" the campaign by tripping the cancel token from another
    // thread while workers are mid-grid. Wherever the claim loop
    // happens to stop, the journal holds exactly the acknowledged
    // units — the same guarantee a SIGKILL gives, minus the process
    // teardown.
    let kill_path = dir.join("killed.ckpt");
    let mut w = CheckpointWriter::create(&kill_path, &fuzz_header(&grid)).unwrap();
    let token = CancelToken::new();
    let killer = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            token.cancel();
        })
    };
    let out =
        run_fuzz_campaign_resumable(&grid, Some(2), None, Some(&mut w), Vec::new(), Some(&token))
            .unwrap();
    killer.join().unwrap();
    drop(w);
    let survivors = out.units.len();

    // Finish the campaign from the journal at both thread counts; both
    // must land on the baseline digest set.
    for threads in [1usize, 4] {
        let resume_path = dir.join(format!("resume-t{threads}.ckpt"));
        std::fs::copy(&kill_path, &resume_path).unwrap();
        let (mut w, resumed) = CheckpointWriter::resume(&resume_path, &fuzz_header(&grid)).unwrap();
        assert_eq!(resumed.len(), survivors);
        let out =
            run_fuzz_campaign_resumable(&grid, Some(threads), None, Some(&mut w), resumed, None)
                .unwrap();
        assert!(out.complete());
        assert_eq!(out.resumed, survivors);
        assert_eq!(
            out.digest_set_fnv(),
            want,
            "resume at {threads} threads diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explore_resume_from_every_cut_point_matches_the_uninterrupted_run() {
    let dir = tempdir("explore-cuts");
    let ecfg = ExploreConfig::default();
    let grid: Vec<ExploreUnit> = [ProtocolKind::SwiftDir, ProtocolKind::Msi]
        .into_iter()
        .flat_map(|p| {
            (0..2u64).map(move |seed| ExploreUnit {
                cfg: tiny_config(2, p),
                stream: contended_stream(seed, 2, 2, 5, 0.3),
            })
        })
        .collect();
    let header = CkptHeader {
        kind: "explore".to_string(),
        campaign: "explore".to_string(),
        config_digest: explore_grid_digest(&grid, &ecfg),
        total: grid.len() as u64,
    };

    let full_path = dir.join("full.ckpt");
    let mut w = CheckpointWriter::create(&full_path, &header).unwrap();
    let out =
        run_explore_campaign_resumable(&grid, &ecfg, Some(2), None, Some(&mut w), Vec::new(), None)
            .unwrap();
    drop(w);
    assert!(out.complete());
    let want = out.digest_set_fnv();

    // An explore journal says so in its header, and every unit walked
    // at least one schedule.
    let full = Checkpoint::load(&full_path).unwrap().unwrap();
    assert_eq!(full.header.kind, "explore");
    assert_eq!(full.units.len(), grid.len());
    assert!(full.units.iter().all(|u| u.schedules > 0));
    assert_eq!(full.digest_set_fnv(), want);

    let journal = std::fs::read_to_string(&full_path).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    for cut in 0..=grid.len() {
        let cut_path = dir.join(format!("cut{cut}.ckpt"));
        let mut text: String = lines[..=cut].join("\n");
        text.push('\n');
        std::fs::write(&cut_path, text).unwrap();

        let (mut w, resumed) = CheckpointWriter::resume(&cut_path, &header).unwrap();
        let out = run_explore_campaign_resumable(
            &grid,
            &ecfg,
            Some(2),
            None,
            Some(&mut w),
            resumed,
            None,
        )
        .unwrap();
        assert!(out.complete());
        assert_eq!((out.resumed, out.fresh), (cut, grid.len() - cut));
        assert_eq!(out.digest_set_fnv(), want, "explore cut {cut} diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}
