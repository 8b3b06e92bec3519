#ifndef IPDS_OBS_NAMES_H
#define IPDS_OBS_NAMES_H

/**
 * @file
 * The one metric naming scheme, shared by every producer.
 *
 * Names are dotted paths, `ipds.<component>.<snake_case_field>`, and
 * mirror the stats structs field-for-field (DetectorStats,
 * TimingStats, EngineStats, CampaignResult), so a value seen in a
 * metrics export can be traced straight back to its producer. Benches
 * and embedders read these through Session::metricsJson() /
 * Session::metrics() instead of reaching into Detector::stats() and
 * friends.
 *
 * Kinds: counters unless noted; `.max_` prefixed fields are gauges
 * merged by maximum; `_hist` suffixed names are histograms.
 */

namespace ipds {
namespace obs {
namespace names {

// DetectorStats (ipds/detector.h)
inline constexpr const char *kDetBranchesSeen =
    "ipds.detector.branches_seen";
inline constexpr const char *kDetChecksEnqueued =
    "ipds.detector.checks_enqueued";
inline constexpr const char *kDetUpdatesApplied =
    "ipds.detector.updates_applied";
inline constexpr const char *kDetActionsApplied =
    "ipds.detector.actions_applied";
inline constexpr const char *kDetFramesPushed =
    "ipds.detector.frames_pushed";
inline constexpr const char *kDetMaxStackDepth = ///< gauge
    "ipds.detector.max_stack_depth";
inline constexpr const char *kDetAlarms = "ipds.detector.alarms";

// Request transport (ipds/request_ring.h)
inline constexpr const char *kRingMaxOccupancy = ///< gauge
    "ipds.ring.max_occupancy";
inline constexpr const char *kRingDrains = "ipds.ring.drains";
inline constexpr const char *kRingOverflowFlushes =
    "ipds.ring.overflow_flushes";
inline constexpr const char *kRingFaultDrops =
    "ipds.ring.fault_drops";
inline constexpr const char *kRingFaultDups =
    "ipds.ring.fault_dups";

// CpuModel / TimingStats (timing/cpu.h)
inline constexpr const char *kCpuInstructions =
    "ipds.cpu.instructions";
inline constexpr const char *kCpuCycles = "ipds.cpu.cycles";
inline constexpr const char *kCpuBranches = "ipds.cpu.branches";
inline constexpr const char *kCpuMispredicts =
    "ipds.cpu.mispredicts";
inline constexpr const char *kCpuL1iMisses = "ipds.cpu.l1i_misses";
inline constexpr const char *kCpuL1dMisses = "ipds.cpu.l1d_misses";
inline constexpr const char *kCpuL2Misses = "ipds.cpu.l2_misses";
inline constexpr const char *kCpuTlbMisses = "ipds.cpu.tlb_misses";
inline constexpr const char *kCpuIpdsStallCycles =
    "ipds.cpu.ipds_stall_cycles";

// IpdsEngine / EngineStats (timing/engine.h)
inline constexpr const char *kEngRequests = "ipds.engine.requests";
inline constexpr const char *kEngCheckRequests =
    "ipds.engine.check_requests";
inline constexpr const char *kEngUpdateRequests =
    "ipds.engine.update_requests";
inline constexpr const char *kEngBusyCycles =
    "ipds.engine.busy_cycles";
inline constexpr const char *kEngQueueFullStalls =
    "ipds.engine.queue_full_stalls";
inline constexpr const char *kEngStallCycles =
    "ipds.engine.stall_cycles";
inline constexpr const char *kEngSpillEvents =
    "ipds.engine.spill_events";
inline constexpr const char *kEngSpillBits = "ipds.engine.spill_bits";
inline constexpr const char *kEngFillEvents =
    "ipds.engine.fill_events";
inline constexpr const char *kEngFillBits = "ipds.engine.fill_bits";
inline constexpr const char *kEngCheckLatencySum =
    "ipds.engine.check_latency_sum";
inline constexpr const char *kEngCheckLatencyCount =
    "ipds.engine.check_latency_count";
inline constexpr const char *kEngFramesDepth = ///< gauge
    "ipds.engine.frames_depth";
inline constexpr const char *kEngDepthClamps =
    "ipds.engine.depth_clamps";
inline constexpr const char *kEngAccountingClamps =
    "ipds.engine.accounting_clamps";

// Vm throughput (vm/vm.h VmStats)
inline constexpr const char *kVmInstructions =
    "ipds.vm.instructions";
inline constexpr const char *kVmBlocks = "ipds.vm.blocks";
inline constexpr const char *kVmEventBatchFlushes =
    "ipds.vm.event_batch_flushes";

// Session facade (obs/session.h)
inline constexpr const char *kSessRuns = "ipds.session.runs";
inline constexpr const char *kSessSteps = "ipds.session.steps";
inline constexpr const char *kSessInputEvents =
    "ipds.session.input_events";
inline constexpr const char *kSessTraceDropped =
    "ipds.session.trace_dropped";

// Fault injection (src/inject/fault.h FaultStats)
inline constexpr const char *kFaultMemTampers =
    "ipds.fault.mem_tampers";
inline constexpr const char *kFaultBsvFlips =
    "ipds.fault.bsv_flips";
inline constexpr const char *kFaultCtxSwitches =
    "ipds.fault.ctx_switches";
inline constexpr const char *kFaultRingDrops =
    "ipds.fault.ring_drops";
inline constexpr const char *kFaultRingDups =
    "ipds.fault.ring_dups";

// Trace capture & replay (src/replay)
inline constexpr const char *kReplayChunks = "ipds.replay.chunks";
inline constexpr const char *kReplayBytes = "ipds.replay.bytes";
inline constexpr const char *kReplayEvents = "ipds.replay.events";
inline constexpr const char *kReplaySessions =
    "ipds.replay.sessions";
inline constexpr const char *kReplayEventsPerSec = ///< gauge
    "ipds.replay.events_per_sec";
inline constexpr const char *kReplayCrcFailures =
    "ipds.replay.crc_failures";
inline constexpr const char *kReplayTruncatedChunks =
    "ipds.replay.truncated_chunks";
inline constexpr const char *kReplayVersionMismatches =
    "ipds.replay.version_mismatches";
inline constexpr const char *kReplayIndexMissing =
    "ipds.replay.index_missing";
inline constexpr const char *kReplaySeeks = "ipds.replay.seeks";
inline constexpr const char *kReplaySnapshotsWritten =
    "ipds.replay.snapshots_written";
inline constexpr const char *kReplaySnapshotsUsed =
    "ipds.replay.snapshots_used";

// Detection service, per-tenant transport meters (src/serve).
// Each tenant's registry otherwise mirrors the offline-replay
// registration order exactly, so `/statsz` sections diff cleanly
// against `run_protected --replay --stats` output.
inline constexpr const char *kTenantStreams = "ipds.tenant.streams";
inline constexpr const char *kTenantFrames = "ipds.tenant.frames";
inline constexpr const char *kTenantBytes = "ipds.tenant.bytes";
inline constexpr const char *kTenantBackpressureStalls =
    "ipds.tenant.backpressure_stalls";
inline constexpr const char *kTenantAlarms = "ipds.tenant.alarms";

// Detection service, server-wide (src/serve/server.h)
inline constexpr const char *kServeStreamsAccepted =
    "ipds.serve.streams_accepted";
inline constexpr const char *kServeStreamsCompleted =
    "ipds.serve.streams_completed";
inline constexpr const char *kServeStreamsFailed =
    "ipds.serve.streams_failed";
inline constexpr const char *kServeFramesIn = "ipds.serve.frames_in";
inline constexpr const char *kServeBytesIn = "ipds.serve.bytes_in";
inline constexpr const char *kServeFrameCrcFailures =
    "ipds.serve.frame_crc_failures";
inline constexpr const char *kServeOversizedFrames =
    "ipds.serve.oversized_frames";
inline constexpr const char *kServeBadFrames =
    "ipds.serve.bad_frames";
inline constexpr const char *kServeBackpressureStalls =
    "ipds.serve.backpressure_stalls";
inline constexpr const char *kServeResumes = "ipds.serve.resumes";
inline constexpr const char *kServeReconnects =
    "ipds.serve.reconnects";
inline constexpr const char *kServeResumedChunks =
    "ipds.serve.resumed_chunks";
inline constexpr const char *kServeUnknownModule =
    "ipds.serve.unknown_module";
inline constexpr const char *kServeAcceptErrors =
    "ipds.serve.accept_errors";
inline constexpr const char *kServeDroppedReplyBytes =
    "ipds.serve.dropped_reply_bytes";
inline constexpr const char *kServeMaxActiveStreams = ///< gauge
    "ipds.serve.max_active_streams";
inline constexpr const char *kServeIngestLatencyHist = ///< histogram
    "ipds.serve.ingest_latency_us_hist";

// Attack campaigns (attack/campaign.h)
inline constexpr const char *kCampAttacks = "ipds.campaign.attacks";
inline constexpr const char *kCampFired = "ipds.campaign.fired";
inline constexpr const char *kCampCfChanged =
    "ipds.campaign.cf_changed";
inline constexpr const char *kCampDetected =
    "ipds.campaign.detected";
inline constexpr const char *kCampFalsePositives =
    "ipds.campaign.false_positives";
inline constexpr const char *kCampDetectionBranchHist = ///< histogram
    "ipds.campaign.detection_branch_index_hist";

} // namespace names
} // namespace obs
} // namespace ipds

#endif // IPDS_OBS_NAMES_H
