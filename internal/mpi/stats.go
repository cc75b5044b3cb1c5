package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// WorldSummary aggregates per-rank counters over a finished (or
// running) world — the quick profile harnesses print after an
// experiment.
type WorldSummary struct {
	Ranks        int
	SoftwareAMs  int64
	HardwareOps  int64
	Interrupts   int64
	MessagesSent int64
	OpsIssued    int64
	BytesIn      int64
	StolenTime   sim.Duration
	EndTime      sim.Time

	// Fault/reliability aggregates. All exactly zero for a world
	// without a fault plan AND for a world with an all-zero-rate plan
	// and no crashes — the determinism tests compare summaries across
	// those configurations with ==.
	FaultDrops     int64
	FaultDelays    int64
	FaultDups      int64
	Retransmits    int64
	RetryTimeouts  int64
	DupsSuppressed int64
	Reroutes       int64
	Abandoned      int64
	RanksFailed    int
	P2PLost        int64

	// Flow-control aggregates. The counters are exactly zero for a
	// world without a FlowConfig, keeping historical summary strings
	// bit-identical; PeakQueueDepth is always measured.
	CreditStalls    int64
	CreditStallTime sim.Duration
	BacklogDropped  int64
	PeakQueueDepth  int // max over ranks of the AM pipeline high-water mark

	// PeakQueueResidency is the world engine's event scheduler
	// pending-event high-water mark (see
	// sim.Engine.PeakQueueResidency). Always measured; deliberately
	// absent from String so historical summary lines stay bit-identical
	// — bench JSON is where it is reported.
	PeakQueueResidency int

	// Recovery aggregates (see RankStats). All exactly zero unless the
	// failure detector acted, keeping historical summary strings
	// bit-identical.
	Suspects       int64
	FalseSuspects  int64
	LocksReclaimed int64
	EpochRelocks   int64
	Successions    int64
	CmdResends     int64
	Rebinds        int64

	// Wire-corruption aggregates (zero unless the plan has a nonzero
	// CorruptRate).
	FaultCorrupts  int64
	CorruptDropped int64

	// App-rank recovery aggregates (zero unless the plan schedules
	// AppCrashes).
	AppRecoveries  int64
	SnapshotsTaken int64
	SnapshotBytes  int64
	ReplayedOps    int64
}

// Summary aggregates the counters of every rank.
func (w *World) Summary() WorldSummary {
	s := WorldSummary{Ranks: len(w.ranks), EndTime: w.eng.Now()}
	for _, r := range w.ranks {
		st := r.stats
		s.SoftwareAMs += st.SoftwareAMs
		s.HardwareOps += st.HardwareOps
		s.Interrupts += st.Interrupts
		s.MessagesSent += st.MessagesSent
		s.OpsIssued += st.OpsIssued
		s.BytesIn += st.BytesIn
		s.StolenTime += st.StolenTime
		s.Retransmits += st.Retransmits
		s.RetryTimeouts += st.RetryTimeouts
		s.DupsSuppressed += st.DupsSuppressed
		s.Reroutes += st.Reroutes
		s.Abandoned += st.Abandoned
		s.CreditStalls += st.CreditStalls
		s.CreditStallTime += st.CreditStallTime
		s.BacklogDropped += st.BacklogDropped
		s.Suspects += st.Suspects
		s.FalseSuspects += st.FalseSuspects
		s.LocksReclaimed += st.LocksReclaimed
		s.EpochRelocks += st.EpochRelocks
		s.Successions += st.Successions
		s.CmdResends += st.CmdResends
		s.Rebinds += st.Rebinds
		s.CorruptDropped += st.CorruptDropped
		s.AppRecoveries += st.AppRecoveries
		s.SnapshotsTaken += st.SnapshotsTaken
		s.SnapshotBytes += st.SnapshotBytes
		s.ReplayedOps += st.ReplayedOps
		if r.engine.peakDepth > s.PeakQueueDepth {
			s.PeakQueueDepth = r.engine.peakDepth
		}
	}
	s.PeakQueueResidency = w.eng.PeakQueueResidency()
	if w.inj != nil {
		fs := w.inj.Stats()
		s.FaultDrops = fs.Drops
		s.FaultDelays = fs.Delays
		s.FaultDups = fs.Dups
		s.FaultCorrupts = fs.Corrupts
	}
	s.RanksFailed = w.failedCount
	s.P2PLost = w.p2pLost
	return s
}

// String implements fmt.Stringer.
func (s WorldSummary) String() string {
	out := fmt.Sprintf(
		"ranks=%d end=%v rma_issued=%d software_ams=%d hardware_ops=%d interrupts=%d stolen=%v p2p_msgs=%d bytes_in=%d",
		s.Ranks, s.EndTime, s.OpsIssued, s.SoftwareAMs, s.HardwareOps,
		s.Interrupts, s.StolenTime, s.MessagesSent, s.BytesIn)
	// Fault-free worlds print exactly the historical summary line.
	if s.FaultDrops|s.FaultDelays|s.FaultDups|s.Retransmits|s.RetryTimeouts|
		s.DupsSuppressed|s.Reroutes|s.Abandoned|s.P2PLost != 0 || s.RanksFailed != 0 {
		out += fmt.Sprintf(
			" faults[drop=%d delay=%d dup=%d] retrans=%d timeouts=%d dups_supp=%d reroutes=%d abandoned=%d failed=%d p2p_lost=%d",
			s.FaultDrops, s.FaultDelays, s.FaultDups, s.Retransmits, s.RetryTimeouts,
			s.DupsSuppressed, s.Reroutes, s.Abandoned, s.RanksFailed, s.P2PLost)
	}
	// Recovery section appears only when the failure detector acted.
	if s.Suspects|s.FalseSuspects|s.LocksReclaimed|s.EpochRelocks|
		s.Successions|s.CmdResends|s.Rebinds != 0 {
		out += fmt.Sprintf(
			" recovery[suspects=%d false=%d locks_reclaimed=%d epoch_relocks=%d successions=%d cmd_resends=%d rebinds=%d]",
			s.Suspects, s.FalseSuspects, s.LocksReclaimed, s.EpochRelocks,
			s.Successions, s.CmdResends, s.Rebinds)
	}
	// Wire-corruption section appears only under a nonzero CorruptRate.
	if s.FaultCorrupts != 0 || s.CorruptDropped != 0 {
		out += fmt.Sprintf(" corrupt[injected=%d dropped=%d]",
			s.FaultCorrupts, s.CorruptDropped)
	}
	// App-recovery section appears only when an application rank crashed
	// recoverably (snapshots alone are silent — they are insurance, not
	// an event worth a changed summary line).
	if s.AppRecoveries != 0 || s.ReplayedOps != 0 {
		out += fmt.Sprintf(" apprecovery[recovered=%d snapshots=%d snap_bytes=%d replayed=%d]",
			s.AppRecoveries, s.SnapshotsTaken, s.SnapshotBytes, s.ReplayedOps)
	}
	// Flow-control section appears only when credits actually bound.
	if s.CreditStalls != 0 || s.CreditStallTime != 0 || s.BacklogDropped != 0 {
		out += fmt.Sprintf(" flow[stalls=%d stall_time=%v dropped=%d peak_depth=%d]",
			s.CreditStalls, s.CreditStallTime, s.BacklogDropped, s.PeakQueueDepth)
	}
	return out
}

// BusiestRank returns the world rank that serviced the most software
// AMs and its count — useful for spotting ghost load imbalance.
func (w *World) BusiestRank() (rank int, ams int64) {
	for i, r := range w.ranks {
		if r.stats.SoftwareAMs > ams {
			rank, ams = i, r.stats.SoftwareAMs
		}
	}
	return rank, ams
}
