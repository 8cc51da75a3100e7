package cluster

import (
	"fmt"
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

// Transition is one replica's health-state change - the event the
// policy engine evaluates. Reason names what tripped it
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

// ActionKind enumerates what a policy may ask the remediator to do.
type ActionKind int

const (
	// ActionPromote makes the named replica its slice's preferred
	// scatter target, so the slice keeps being served while the old
	// primary sits in quarantine.
	ActionPromote ActionKind = iota
	// ActionReprobe probes the named replica immediately, out of band
	// with the probe loop - quarantine entry and recovery are noticed
	// one RTT after the fact instead of one probe period.
	ActionReprobe
	// ActionRestart runs the configured restart-command hook for the
	// named replica (systemd kick, container respawn, operator page -
	// whatever the deployment wires in).
	ActionRestart
	// ActionSyncFromPeer tells the named replica to run an anti-entropy
	// pass against a healthy peer in its slice (POST /sync/from-peer):
	// diverged or corrupted column chunks are fetched AN-encoded,
	// verified on receipt, healed in place, and the replica's column
	// quarantines lifted once the data checks clean.
	ActionSyncFromPeer
)

func (k ActionKind) String() string {
	switch k {
	case ActionPromote:
		return "promote"
	case ActionReprobe:
		return "reprobe"
	case ActionRestart:
		return "restart"
	case ActionSyncFromPeer:
		return "sync-from-peer"
	}
	return fmt.Sprintf("action(%d)", int(k))
}

// MarshalJSON renders the kind as its name.
func (k ActionKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Action is one remediation step a policy decided on: Kind applied to
// the replica at Slice/Replica, attributed to the policy that fired.
type Action struct {
	Kind    ActionKind `json:"kind"`
	Slice   int        `json:"slice"`
	Replica int        `json:"replica"`
	URL     string     `json:"url"`
	Policy  string     `json:"policy"`
}

func (a Action) String() string {
	return fmt.Sprintf("%s shard%d.%d (policy %s)", a.Kind, a.Slice, a.Replica, a.Policy)
}

// ReplicaView is one replica's state in the snapshot policies evaluate
// against.
type ReplicaView struct {
	Slice       int
	Replica     int
	URL         string
	Healthy     bool
	Preferred   bool
	Quarantines uint64 // windows entered or extended so far
}

// ClusterView is the health snapshot a policy sees: Slices[i] lists
// slice i's replicas in replica order. It is a copy - policies cannot
// mutate router state except through the actions they return.
type ClusterView struct {
	Slices [][]ReplicaView
}

// slice returns the view of one slice (nil when out of range, so
// policies stay total over malformed events).
func (v *ClusterView) slice(i int) []ReplicaView {
	if i < 0 || i >= len(v.Slices) {
		return nil
	}
	return v.Slices[i]
}

// Policy evaluates one health transition against the cluster view and
// returns the remediation actions to take - the evaluate half of the
// evaluate -> remediate -> alert pipeline. Policies must be pure:
// decide, don't do.
type Policy interface {
	Name() string
	Evaluate(tr Transition, view *ClusterView) []Action
}

// PromoteOnQuarantine re-points a slice's preferred replica: when the
// preferred replica is quarantined, the first healthy peer is
// promoted; when a replica recovers and the current preferred is
// quarantined, the recovered one takes over. A slice with no healthy
// replica gets no action - there is nothing to promote.
type PromoteOnQuarantine struct{}

func (PromoteOnQuarantine) Name() string { return "promote-on-quarantine" }

func (p PromoteOnQuarantine) Evaluate(tr Transition, view *ClusterView) []Action {
	replicas := view.slice(tr.Slice)
	if replicas == nil {
		return nil
	}
	switch tr.To {
	case StateQuarantined:
		// Only the preferred replica's loss needs a promotion.
		if tr.Replica >= len(replicas) || !replicas[tr.Replica].Preferred {
			return nil
		}
		for _, r := range replicas {
			if r.Healthy && r.Replica != tr.Replica {
				return []Action{{Kind: ActionPromote, Slice: r.Slice, Replica: r.Replica, URL: r.URL, Policy: p.Name()}}
			}
		}
	case StateHealthy:
		// A recovery promotes only if the slice is currently pointed at
		// a quarantined replica.
		for _, r := range replicas {
			if r.Preferred {
				if r.Healthy {
					return nil
				}
				break
			}
		}
		return []Action{{Kind: ActionPromote, Slice: tr.Slice, Replica: tr.Replica, URL: tr.URL, Policy: p.Name()}}
	}
	return nil
}

// ReprobeOnQuarantine follows every quarantine entry with an immediate
// out-of-band probe of the victim, so a transient failure (GC pause,
// connection reset burst) is confirmed or ruled out within one RTT.
type ReprobeOnQuarantine struct{}

func (ReprobeOnQuarantine) Name() string { return "reprobe-on-quarantine" }

func (p ReprobeOnQuarantine) Evaluate(tr Transition, _ *ClusterView) []Action {
	if tr.To != StateQuarantined {
		return nil
	}
	return []Action{{Kind: ActionReprobe, Slice: tr.Slice, Replica: tr.Replica, URL: tr.URL, Policy: p.Name()}}
}

// RestartAfterQuarantines escalates to the restart hook once a replica
// has entered or extended quarantine After times - a replica that
// keeps relapsing is not coming back on its own.
type RestartAfterQuarantines struct {
	After uint64
}

func (RestartAfterQuarantines) Name() string { return "restart-after-quarantines" }

func (p RestartAfterQuarantines) Evaluate(tr Transition, view *ClusterView) []Action {
	if tr.To != StateQuarantined {
		return nil
	}
	after := p.After
	if after == 0 {
		after = 3
	}
	for _, r := range view.slice(tr.Slice) {
		if r.Replica == tr.Replica && r.Quarantines >= after {
			return []Action{{Kind: ActionRestart, Slice: tr.Slice, Replica: tr.Replica, URL: tr.URL, Policy: p.Name()}}
		}
	}
	return nil
}

// SyncFromPeerOnQuarantine follows a quarantine entry with an
// anti-entropy pass: the victim replica pulls its hardened columns
// level with a healthy peer in its slice, healing whatever corruption
// or divergence got it quarantined. No action when the slice has no
// healthy peer to be authoritative.
type SyncFromPeerOnQuarantine struct{}

func (SyncFromPeerOnQuarantine) Name() string { return "sync-from-peer-on-quarantine" }

func (p SyncFromPeerOnQuarantine) Evaluate(tr Transition, view *ClusterView) []Action {
	if tr.To != StateQuarantined {
		return nil
	}
	for _, r := range view.slice(tr.Slice) {
		if r.Healthy && r.Replica != tr.Replica {
			return []Action{{Kind: ActionSyncFromPeer, Slice: tr.Slice, Replica: tr.Replica, URL: tr.URL, Policy: p.Name()}}
		}
	}
	return nil
}
