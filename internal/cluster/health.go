package cluster

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// shardState tracks one replica's availability as seen by the router.
// Failures (failed probes or failed scatter requests) accumulate; after
// QuarantineAfter consecutive ones the replica is quarantined and the
// router stops sending it work. Re-admission is probation with
// exponential backoff: once the quarantine window elapses, the next
// successful probe re-admits the replica, but the backoff level is NOT
// forgiven on re-admission - it decays one step per RecoverAfter
// consecutive healthy probes. A fail/succeed/fail flapper therefore
// keeps escalating toward the window cap and converges to long quiet
// periods, while a replica that stays healthy earns its way back to
// the base window.
type shardState struct {
	slice   int // hash-slice index this replica serves
	replica int // replica index within the slice
	url     string

	mu          sync.Mutex
	healthy     bool
	consecFails int
	consecOks   int       // healthy-probe streak toward one level of decay
	level       uint      // backoff exponent for the next quarantine window
	until       time.Time // earliest re-admission while quarantined

	quarantines    atomic.Uint64 // total windows entered or extended (metric)
	requestsFailed atomic.Uint64 // scatter requests lost to this replica (metric)
	sheds          atomic.Uint64 // 429/503 backpressure replies observed (metric)
	detected       atomic.Uint64 // last scraped shard-local detection counter

	extensionQueued atomic.Bool // a window extension waits in the remediation queue
	work            replicaWork // restart and sync actions for this replica
}

func newShardState(slice, replica int, url string) *shardState {
	// Replicas start healthy: the router is usable the moment it binds,
	// and a dead replica is quarantined within QuarantineAfter probes.
	return &shardState{slice: slice, replica: replica, url: url, healthy: true}
}

// Name renders the replica's stable identity ("shard2.1" is slice 2,
// replica 1) for logs and alerts.
func (s *shardState) Name() string {
	return "shard" + strconv.Itoa(s.slice) + "." + strconv.Itoa(s.replica)
}

// Healthy reports whether the replica should receive work.
func (s *shardState) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthy
}

func (s *shardState) backoff(base, max time.Duration) time.Duration {
	d := base << s.level
	if d > max || d <= 0 { // <= 0 guards shift overflow
		d = max
	}
	return d
}

// reportSuccess clears the failure streak, re-admits a quarantined
// replica once its window has elapsed, and - only after recoverAfter
// consecutive successes - decays the backoff level by one step. It
// returns true when the replica transitioned quarantined -> healthy.
func (s *shardState) reportSuccess(now time.Time, recoverAfter int) (readmitted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails = 0
	if !s.healthy {
		if now.Before(s.until) {
			return false
		}
		// Re-admission is probation: the level survives, so a relapse
		// quarantines with a longer window than last time.
		s.healthy = true
		s.consecOks = 0
		return true
	}
	if s.level > 0 {
		if recoverAfter < 1 {
			recoverAfter = 1
		}
		s.consecOks++
		if s.consecOks >= recoverAfter {
			s.level--
			s.consecOks = 0
		}
	}
	return false
}

// reportFailure records one failed probe or scatter request, entering
// or extending quarantine. entered reports the healthy -> quarantined
// transition; extended reports that an already quarantined replica
// failed on or after its window boundary and started a longer window.
func (s *shardState) reportFailure(now time.Time, threshold int, base, max time.Duration) (entered, extended bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails++
	s.consecOks = 0
	if s.healthy {
		if s.consecFails < threshold {
			return false, false
		}
		s.healthy = false
		entered = true
	} else if now.Before(s.until) {
		return false, false
	}
	s.until = now.Add(s.backoff(base, max))
	s.level++
	s.quarantines.Add(1)
	return entered, !entered
}

// window returns the quarantine boundary (test hook; callers hold no
// invariants over it while healthy).
func (s *shardState) window() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.until
}
