package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// decideCase is one situation for decide: a health event, the slice it
// happened in, and the actions it must yield, in the order they run.
type decideCase struct {
	name          string
	tr            Transition
	replicas      []replicaView
	preferred     int
	sync, restart bool
	want          []Action
}

// checkDecide runs each case through decide.
func checkDecide(t *testing.T, cases []decideCase) {
	t.Helper()
	for _, c := range cases {
		got := decide(c.tr, c.replicas, c.preferred, c.sync, c.restart)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// viewOf builds a slice's view; quarantines is per replica.
func viewOf(slice int, healthy []bool, quarantines ...uint64) []replicaView {
	out := make([]replicaView, len(healthy))
	for i, h := range healthy {
		out[i] = replicaView{url: fmt.Sprintf("http://s%d.r%d", slice, i), healthy: h}
		if i < len(quarantines) {
			out[i].quarantines = quarantines[i]
		}
	}
	return out
}

func act(kind string, slice, replica int) Action {
	return Action{Kind: kind, Slice: slice, Replica: replica, URL: fmt.Sprintf("http://s%d.r%d", slice, replica)}
}

func enter(slice, replica int) Transition {
	return Transition{Slice: slice, Replica: replica, From: StateHealthy, To: StateQuarantined, Reason: "probe-failures"}
}

func readmit(slice, replica int) Transition {
	return Transition{Slice: slice, Replica: replica, From: StateQuarantined, To: StateHealthy, Reason: "reprobe"}
}

func extend(slice, replica int) Transition {
	return Transition{Slice: slice, Replica: replica, From: StateQuarantined, To: StateQuarantined, Reason: "probe-failures"}
}

// TestPromoteOnQuarantine pins the promotion rule: a lost preferred
// replica hands the slice to a healthy peer, and a recovered one takes
// it back only while the preferred replica is down.
func TestPromoteOnQuarantine(t *testing.T) {
	checkDecide(t, []decideCase{
		{name: "preferred lost, healthy peer: promote the peer",
			tr: enter(0, 0), replicas: viewOf(0, []bool{false, true}), preferred: 0,
			want: []Action{act(ActionPromote, 0, 1), act(ActionReprobe, 0, 0)}},
		{name: "non-preferred lost: no promotion",
			tr: enter(0, 1), replicas: viewOf(0, []bool{true, false}), preferred: 0,
			want: []Action{act(ActionReprobe, 0, 1)}},
		{name: "both replicas down: nothing to promote",
			tr: enter(0, 0), replicas: viewOf(0, []bool{false, false}), preferred: 0,
			want: []Action{act(ActionReprobe, 0, 0)}},
		{name: "recovery while the preferred is quarantined: promote it back",
			tr: readmit(0, 0), replicas: viewOf(0, []bool{true, false}), preferred: 1,
			want: []Action{act(ActionPromote, 0, 0)}},
		{name: "recovery while the preferred is healthy: no flap",
			tr: readmit(0, 0), replicas: viewOf(0, []bool{true, true}), preferred: 1,
			want: nil},
	})
}

// TestReprobeAndRestartPolicies pins the reprobe rule (every quarantine
// reprobes its victim) and the restart rule (the hook runs once a
// replica has been quarantined restartAfter times).
func TestReprobeAndRestartPolicies(t *testing.T) {
	checkDecide(t, []decideCase{
		{name: "quarantine reprobes the victim",
			tr: enter(1, 0), replicas: viewOf(1, []bool{false, true}), preferred: 1,
			want: []Action{act(ActionReprobe, 1, 0)}},
		{name: "recovery never reprobes",
			tr: readmit(1, 0), replicas: viewOf(1, []bool{true, true}), preferred: 0,
			want: nil},
		{name: "below the restart threshold: no restart",
			tr: enter(1, 0), replicas: viewOf(1, []bool{false, true}, restartAfter-1), preferred: 1, restart: true,
			want: []Action{act(ActionReprobe, 1, 0)}},
		{name: "threshold reached: restart",
			tr: enter(1, 0), replicas: viewOf(1, []bool{false, true}, restartAfter), preferred: 1, restart: true,
			want: []Action{act(ActionReprobe, 1, 0), act(ActionRestart, 1, 0)}},
		{name: "no restart command: no restart",
			tr: enter(1, 0), replicas: viewOf(1, []bool{false, true}, restartAfter+5), preferred: 1,
			want: []Action{act(ActionReprobe, 1, 0)}},
	})
}

// TestSyncFromPeerOnQuarantine pins the sync rule: a quarantined
// replica syncs from its slice only while a healthy peer exists.
func TestSyncFromPeerOnQuarantine(t *testing.T) {
	checkDecide(t, []decideCase{
		{name: "quarantine with a healthy peer syncs the victim",
			tr: enter(0, 0), replicas: viewOf(0, []bool{false, true}), preferred: 1, sync: true,
			want: []Action{act(ActionReprobe, 0, 0), act(ActionSyncFromPeer, 0, 0)}},
		{name: "no healthy peer: nothing authoritative to sync from",
			tr: enter(0, 0), replicas: viewOf(0, []bool{false, false}), preferred: 1, sync: true,
			want: []Action{act(ActionReprobe, 0, 0)}},
		{name: "recovery never syncs",
			tr: readmit(0, 0), replicas: viewOf(0, []bool{true, true}), preferred: 0, sync: true,
			want: nil},
	})
}

// TestDecide pins how the rules combine: every rule at once runs in
// rule order, and a quarantine window extension reaches only the
// restart rule.
func TestDecide(t *testing.T) {
	checkDecide(t, []decideCase{
		{name: "preferred lost with every rule on",
			tr: enter(0, 0), replicas: viewOf(0, []bool{false, true}, restartAfter), preferred: 0, sync: true, restart: true,
			want: []Action{act(ActionPromote, 0, 1), act(ActionReprobe, 0, 0), act(ActionSyncFromPeer, 0, 0), act(ActionRestart, 0, 0)}},
		{name: "extension at the threshold restarts, nothing else",
			tr: extend(0, 0), replicas: viewOf(0, []bool{false, true}, restartAfter), preferred: 0, sync: true, restart: true,
			want: []Action{act(ActionRestart, 0, 0)}},
		{name: "extension below the threshold decides nothing",
			tr: extend(0, 0), replicas: viewOf(0, []bool{false, true}, restartAfter-1), preferred: 0, sync: true, restart: true,
			want: nil},
	})
}

// TestAlertRingWraps overfills the ring and checks the retained
// window is the most recent alerts, oldest first.
func TestAlertRingWraps(t *testing.T) {
	var a alertRing
	for i := 0; i < alertRingSize+10; i++ {
		a.add(Alert{Kind: "transition", Transition: Transition{Slice: i}})
	}
	recent := a.recent()
	if len(recent) != alertRingSize {
		t.Fatalf("retained %d, want %d", len(recent), alertRingSize)
	}
	if recent[0].Transition.Slice != 10 || recent[alertRingSize-1].Transition.Slice != alertRingSize+9 {
		t.Fatalf("ring order wrong: first %d last %d", recent[0].Transition.Slice, recent[alertRingSize-1].Transition.Slice)
	}
	if a.count() != alertRingSize+10 {
		t.Fatalf("total %d", a.count())
	}
}

// TestRunRestartCommand executes a real hook and checks the replica
// identity reaches it through the environment.
func TestRunRestartCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "restarted")
	if err := runRestartCommand(context.Background(), "echo \"$AHEAD_SLICE.$AHEAD_REPLICA $AHEAD_SHARD_URL\" > "+out, 2, 1, "http://victim"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "2.1 http://victim\n" {
		t.Fatalf("hook saw %q", data)
	}
	if err := runRestartCommand(context.Background(), "exit 3", 0, 0, "u"); err == nil {
		t.Fatal("failing hook must surface its error")
	}
}
