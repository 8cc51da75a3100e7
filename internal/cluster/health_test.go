package cluster

import (
	"testing"
	"time"
)

// TestShardQuarantineAndBackoff drives one shardState through the full
// lifecycle: healthy, quarantined after consecutive failures,
// re-admitted after the window on a successful probe, and
// exponentially backed off while it keeps failing.
func TestShardQuarantineAndBackoff(t *testing.T) {
	const threshold = 3
	const recoverAfter = 2
	base, max := 2*time.Second, 30*time.Second
	now := time.Unix(1000, 0)
	s := newShardState(0, 0, "http://x")

	if !s.Healthy() {
		t.Fatal("shards must start healthy")
	}
	// Failures below the threshold do not quarantine.
	s.reportFailure(now, threshold, base, max)
	s.reportFailure(now, threshold, base, max)
	if !s.Healthy() {
		t.Fatal("quarantined before the consecutive-failure threshold")
	}
	// A success resets the streak.
	s.reportSuccess(now, recoverAfter)
	s.reportFailure(now, threshold, base, max)
	s.reportFailure(now, threshold, base, max)
	if !s.Healthy() {
		t.Fatal("failure streak must reset on success")
	}
	// The threshold-th consecutive failure quarantines.
	if entered, _ := s.reportFailure(now, threshold, base, max); !entered {
		t.Fatal("quarantine entry must report a transition")
	}
	if s.Healthy() {
		t.Fatal("threshold reached but not quarantined")
	}
	if got := s.quarantines.Load(); got != 1 {
		t.Fatalf("quarantines = %d, want 1", got)
	}
	// A success during the window does not re-admit.
	if s.reportSuccess(now.Add(base/2), recoverAfter) {
		t.Fatal("re-admission inside the window must not transition")
	}
	if s.Healthy() {
		t.Fatal("re-admitted before the backoff window elapsed")
	}
	// A failure past the window extends it with doubled backoff.
	if entered, extended := s.reportFailure(now.Add(base), threshold, base, max); entered || !extended {
		t.Fatalf("post-window failure: entered=%v extended=%v, want an extension, not a fresh transition", entered, extended)
	}
	if s.Healthy() {
		t.Fatal("must stay quarantined after a post-window failure")
	}
	if got := s.quarantines.Load(); got != 2 {
		t.Fatalf("quarantines = %d, want 2 (window extended)", got)
	}
	// The second window is 2*base; success after it re-admits.
	reAdmit := now.Add(base).Add(2 * base)
	s.reportSuccess(reAdmit.Add(-time.Millisecond), recoverAfter)
	if s.Healthy() {
		t.Fatal("re-admitted before the extended window elapsed")
	}
	if !s.reportSuccess(reAdmit, recoverAfter) {
		t.Fatal("post-window success must report the re-admission transition")
	}
	if !s.Healthy() {
		t.Fatal("must re-admit on success after the window")
	}
	// Re-admission does NOT forgive the backoff level: an immediate
	// relapse quarantines with a window longer than the last one.
	for i := 0; i < threshold; i++ {
		s.reportFailure(reAdmit, threshold, base, max)
	}
	if s.Healthy() {
		t.Fatal("second quarantine must engage")
	}
	if w := s.window().Sub(reAdmit); w != 4*base {
		t.Fatalf("relapse window %v, want 4*base=%v (level must survive re-admission)", w, 4*base)
	}
}

// TestShardFlapEscalatesBackoff pins the flapping-shard bug: a replica
// that alternates fail-streak / single-success must see strictly
// growing quarantine windows, not the base window forever. One
// successful probe is NOT enough to forgive the backoff level; only
// recoverAfter consecutive successes decay it, one level at a time.
func TestShardFlapEscalatesBackoff(t *testing.T) {
	const threshold = 2
	const recoverAfter = 3
	base, max := time.Second, 300*time.Second
	now := time.Unix(0, 0)
	s := newShardState(1, 0, "http://x")

	quarantine := func() time.Duration {
		for i := 0; i < threshold; i++ {
			s.reportFailure(now, threshold, base, max)
		}
		if s.Healthy() {
			t.Fatal("flap iteration failed to quarantine")
		}
		w := s.window().Sub(now)
		// Serve the full window, then one success re-admits.
		now = s.window()
		if !s.reportSuccess(now, recoverAfter) {
			t.Fatal("post-window success must re-admit")
		}
		return w
	}

	prev := quarantine()
	if prev != base {
		t.Fatalf("first window %v, want base %v", prev, base)
	}
	// fail/succeed/fail flapping: every subsequent window must grow
	// (doubling) instead of staying at base.
	for i := 0; i < 5; i++ {
		w := quarantine()
		if w <= prev {
			t.Fatalf("flap %d: window %v did not escalate beyond %v", i, w, prev)
		}
		if w != prev*2 {
			t.Fatalf("flap %d: window %v, want doubled %v", i, w, prev*2)
		}
		prev = w
	}

	// Sustained health decays the level one step per recoverAfter
	// consecutive successes; a partial streak decays nothing.
	levelBefore := func() uint { s.mu.Lock(); defer s.mu.Unlock(); return s.level }
	l0 := levelBefore()
	for i := 0; i < recoverAfter-1; i++ {
		s.reportSuccess(now, recoverAfter)
	}
	if l := levelBefore(); l != l0 {
		t.Fatalf("level decayed after %d successes, want none before %d", recoverAfter-1, recoverAfter)
	}
	s.reportSuccess(now, recoverAfter)
	if l := levelBefore(); l != l0-1 {
		t.Fatalf("level %d after a full streak, want %d", l, l0-1)
	}
	// A failure resets the healthy streak, so decay starts over.
	s.reportFailure(now, threshold+10, base, max)
	for i := 0; i < recoverAfter-1; i++ {
		s.reportSuccess(now, recoverAfter)
	}
	if l := levelBefore(); l != l0-1 {
		t.Fatalf("level %d: a failure mid-streak must restart the decay count", l)
	}
}

// TestShardBackoffCap keeps a shard failing and checks the window
// never exceeds the cap.
func TestShardBackoffCap(t *testing.T) {
	base, max := time.Second, 8*time.Second
	now := time.Unix(0, 0)
	s := newShardState(0, 0, "http://x")
	s.reportFailure(now, 1, base, max)
	// Walk far past where doubling would overflow the cap.
	for i := 0; i < 80; i++ {
		until := s.window()
		if w := until.Sub(now); w > max {
			t.Fatalf("window %v exceeds cap %v", w, max)
		}
		now = until
		s.reportFailure(now, 1, base, max)
	}
}
