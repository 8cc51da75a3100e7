package cluster

import (
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// HealthState is a replica's position in the quarantine lifecycle as
// the router sees it.
type HealthState int

const (
	StateHealthy HealthState = iota
	StateQuarantined
)

func (s HealthState) String() string {
	if s == StateHealthy {
		return "healthy"
	}
	return "quarantined"
}

// MarshalJSON renders the state as its name, so alerts read
// "quarantined" instead of a bare enum ordinal.
func (s HealthState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Transition is one replica's health event - what decide rules on.
// From != To is a state change; From == To == StateQuarantined is a
// window extension: the replica failed again at its window boundary
// and stays out for a longer window. Reason names what tripped it
// ("probe-failures", "scatter-failure", "envelope-error", "reprobe").
type Transition struct {
	Slice   int         `json:"slice"`
	Replica int         `json:"replica"`
	URL     string      `json:"url"`
	From    HealthState `json:"from"`
	To      HealthState `json:"to"`
	Reason  string      `json:"reason"`
	At      time.Time   `json:"at"`
}

func (t Transition) String() string {
	return fmt.Sprintf("shard%d.%d %s->%s (%s)", t.Slice, t.Replica, t.From, t.To, t.Reason)
}

// The remediation actions, named as they appear on /alerts and in
// ahead_router_remediations_total{action=...}.
const (
	// ActionPromote makes the named replica its slice's preferred
	// scatter target, so the slice keeps being served while the old
	// primary sits in quarantine.
	ActionPromote = "promote"
	// ActionReprobe probes the named replica immediately, out of band
	// with the probe loop, so a transient failure is confirmed or ruled
	// out within one RTT instead of one probe period.
	ActionReprobe = "reprobe"
	// ActionRestart runs RouterConfig.RestartCommand for the named
	// replica (systemd kick, container respawn, operator page).
	ActionRestart = "restart"
	// ActionSyncFromPeer tells the named replica to run an anti-entropy
	// pass against a healthy peer in its slice (POST /sync/from-peer).
	ActionSyncFromPeer = "sync-from-peer"
)

// actionKinds lists every action kind in /metrics order.
var actionKinds = [...]string{ActionPromote, ActionReprobe, ActionRestart, ActionSyncFromPeer}

// restartAfter is how many quarantine windows (entered or extended) a
// replica must have run through before the restart hook is invoked for
// it - a replica that stays down or keeps relapsing is not coming back
// on its own.
const restartAfter = 3

// Action is one remediation step decide returns: Kind applied to the
// replica at Slice/Replica.
type Action struct {
	Kind    string `json:"kind"`
	Slice   int    `json:"slice"`
	Replica int    `json:"replica"`
	URL     string `json:"url"`
}

// replicaView is one replica's health as decide sees it, indexed by
// replica within its slice.
type replicaView struct {
	url         string
	healthy     bool
	quarantines uint64 // windows entered or extended so far
}

// decide is the router's whole remediation rule set, pure over a
// snapshot of the transition's slice (replicas, and the replica its
// scatter prefers). The rules, in the order their actions run:
//
//   - promote: a quarantined preferred replica hands the slice to its
//     first healthy peer; a recovering replica takes the slice back if
//     the preferred one is quarantined. No healthy peer, no promotion.
//   - reprobe: every quarantine entry probes the victim at once.
//   - sync-from-peer (when sync is set): every quarantine entry with a
//     healthy peer orders the victim to sync its hardened columns.
//   - restart (when restart is set): every quarantine entry or window
//     extension of a replica that has run through restartAfter windows.
//
// A window extension reaches only the restart rule: the replica was
// already out, promoted away from, reprobed and synced at entry.
func decide(tr Transition, replicas []replicaView, preferred int, sync, restart bool) []Action {
	act := func(kind string, replica int) Action {
		return Action{Kind: kind, Slice: tr.Slice, Replica: replica, URL: replicas[replica].url}
	}
	if tr.To == StateHealthy {
		if replicas[preferred].healthy {
			return nil
		}
		return []Action{act(ActionPromote, tr.Replica)}
	}
	var out []Action
	if tr.From == StateHealthy {
		peer := -1
		for i, r := range replicas {
			if i != tr.Replica && r.healthy {
				peer = i
				break
			}
		}
		if tr.Replica == preferred && peer >= 0 {
			out = append(out, act(ActionPromote, peer))
		}
		out = append(out, act(ActionReprobe, tr.Replica))
		if sync && peer >= 0 {
			out = append(out, act(ActionSyncFromPeer, tr.Replica))
		}
	}
	if restart && replicas[tr.Replica].quarantines >= restartAfter {
		out = append(out, act(ActionRestart, tr.Replica))
	}
	return out
}

// Alert is one structured notification out of remediation: every
// health transition raises one, and every executed action raises
// another reporting what was done about it (Err set when the action
// itself failed, e.g. a restart hook exiting nonzero).
type Alert struct {
	// Kind is "transition" or "remediation".
	Kind       string     `json:"kind"`
	Transition Transition `json:"transition"`
	// Action is set on remediation alerts.
	Action *Action   `json:"action,omitempty"`
	Err    string    `json:"error,omitempty"`
	At     time.Time `json:"at"`
}

// alertRingSize bounds the in-memory alert history served on /alerts.
const alertRingSize = 256

// alertRing keeps the last alertRingSize alerts for GET /alerts and
// counts every alert ever added. Safe for concurrent use.
type alertRing struct {
	mu    sync.Mutex
	buf   []Alert // buf[next] is the oldest once wrapped
	next  int
	total uint64
}

func (a *alertRing) add(al Alert) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.buf) < alertRingSize {
		a.buf = append(a.buf, al)
	} else {
		a.buf[a.next] = al
	}
	a.next = (a.next + 1) % alertRingSize
	a.total++
}

// count returns the number of alerts raised since start.
func (a *alertRing) count() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// recent returns the retained alerts, oldest first.
func (a *alertRing) recent() []Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Alert, 0, len(a.buf))
	if len(a.buf) == alertRingSize {
		out = append(out, a.buf[a.next:]...)
		return append(out, a.buf[:a.next]...)
	}
	return append(out, a.buf...)
}

// restartCommandTimeout bounds one restart-hook invocation.
const restartCommandTimeout = 30 * time.Second

// runRestartCommand executes the configured shell hook with the
// replica's identity in the environment (AHEAD_SHARD_URL, AHEAD_SLICE,
// AHEAD_REPLICA), so one command template serves every replica. The
// hook is killed when ctx ends or after restartCommandTimeout.
func runRestartCommand(ctx context.Context, command string, slice, replica int, url string) error {
	ctx, cancel := context.WithTimeout(ctx, restartCommandTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "/bin/sh", "-c", command)
	cmd.Env = append(cmd.Environ(),
		"AHEAD_SHARD_URL="+url,
		"AHEAD_SLICE="+strconv.Itoa(slice),
		"AHEAD_REPLICA="+strconv.Itoa(replica),
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("cluster: restart hook for shard%d.%d: %w (output: %.200s)", slice, replica, err, out)
	}
	return nil
}
