package serve

import (
	"fmt"
	"time"
)

// This file is the deployment stage machine and nothing else: no lock,
// no clock read, no disk, no log (TestStageMachineIsPure holds it to
// that). Every function works on one name's deployment record, takes
// "now" from its caller, and returns the transition events for the
// caller to count, journal and log — or, for Add/AddStaged, discard.

// Stage is a model generation's position in the deployment pipeline.
// New disk generations of an already-served name enter at StageShadow,
// are promoted to StageCanary once they have mirrored enough traffic,
// and reach StageActive (the only stage that answers user requests)
// through the atomic slot swap in enter; a generation that regresses or
// is superseded ends at StageRetired. Every stage mutation in this
// package routes through applyStage (enforced by the stagegate vet
// rule), so there is exactly one place a generation can change state.
//
//vet:stagegate
type Stage string

const (
	// StageShadow mirrors sampled traffic and accumulates live error
	// scores; it never serves a user-visible response.
	StageShadow Stage = "shadow"
	// StageCanary is a promotion candidate under policy evaluation; it
	// still only sees mirrored traffic, but a regression here triggers
	// automatic rollback instead of an indefinite hold.
	StageCanary Stage = "canary"
	// StageActive serves user traffic.
	StageActive Stage = "active"
	// StageRetired is terminal: rolled back, superseded, or replaced.
	StageRetired Stage = "retired"
)

// legalTransition is the stage machine's edge set for staged
// generations. Activation of a brand-new name (From == "") and the
// demotion of a replaced active happen inside enter, not by callers.
func legalTransition(from, to Stage) bool {
	next := nextStage(from)
	return next != "" && (to == next || to == StageRetired)
}

// nextStage is the pipeline's forward edge, and the promote-one-step
// rule of the manual override: shadow→canary, canary→active, "" from
// anywhere else.
func nextStage(from Stage) Stage {
	switch from {
	case StageShadow:
		return StageCanary
	case StageCanary:
		return StageActive
	}
	return ""
}

// TransitionEvent describes one stage change, delivered to the
// OnTransition hook (which the engine uses to journal WAL lifecycle
// events). From is empty for a generation's initial placement.
type TransitionEvent struct {
	Model    string
	BundleID string
	From     Stage
	To       Stage
	Reason   string
	Time     time.Time
}

// applyStage performs the raw stage write for one generation and resets
// its evaluation stats (each stage is judged on its own window). It is
// the package's single stage-mutation point — the stagegate vet rule
// refuses Stage-field writes anywhere else — and enter is its caller.
//
//vet:stagegate-transition
func applyStage(m *Model, to Stage, now time.Time) {
	m.Stage = to
	m.StageSince = now
	if m.Stats != nil && to != StageRetired {
		m.Stats.reset(now)
	}
}

// deployment is everything the registry knows about one name, so
// unloading a name is deleting its record: the active generation
// serving traffic, at most one staged shadow/canary under evaluation,
// and the bookkeeping of the name's bundle directory (zero for
// programmatic models).
type deployment struct {
	active *Model
	staged *Model
	gens   int // per-name generation counter

	stamp  bundleStamp // latest placed bundle (disk half)
	failed bundleStamp // last load failure, for reload backoff (disk half)
	// retiredDisk is a rolled-back bundle whose bytes are still the
	// name's on-disk publish: its stamp stays recorded (so Reload does
	// not resurrect it) and compaction carries its retired lifecycle
	// event forward (so a restart does not either). Cleared when new
	// bytes are placed.
	retiredDisk string
}

// live lists the deployment's generations in generation order: the
// active first, unless an immediate swap overtook a parked staged one.
func (d *deployment) live() []*Model {
	var out []*Model
	if d.active != nil {
		out = append(out, d.active)
	}
	if d.staged != nil {
		out = append(out, d.staged)
	}
	if len(out) == 2 && out[1].Generation < out[0].Generation {
		out[0], out[1] = out[1], out[0]
	}
	return out
}

// enter moves generation m into stage to. It is the one slot writer:
// nothing else assigns deployment.active or deployment.staged. A
// generation entering the machine is numbered; one leaving the staged
// slot (promotion, rollback) keeps its number and vacates the slot.
// Whatever holds the slot the target stage selects is retired first,
// and its retirement event precedes m's own.
func (d *deployment) enter(m *Model, to Stage, reason string, now time.Time) []TransitionEvent {
	var from Stage
	if m == d.staged {
		from, d.staged = m.Stage, nil
	} else {
		d.gens++
		m.Generation = d.gens
	}
	var slot **Model
	var retireReason string
	switch {
	case to == StageRetired: // leaves the machine; no slot to take
	case to != StageActive:
		slot, retireReason = &d.staged, "superseded by newer publish "
	case from != "":
		slot, retireReason = &d.active, "superseded by promoted canary "
	default:
		slot, retireReason = &d.active, "replaced by "
	}
	var evs []TransitionEvent
	if slot != nil {
		if old := *slot; old != nil {
			evs = append(evs, event(old, old.Stage, StageRetired, retireReason+m.BundleID, now))
			applyStage(old, StageRetired, now)
		}
		*slot = m
	}
	applyStage(m, to, now)
	return append(evs, event(m, from, to, reason, now))
}

func event(m *Model, from, to Stage, reason string, now time.Time) TransitionEvent {
	return TransitionEvent{Model: m.Name, BundleID: m.BundleID, From: from, To: to, Reason: reason, Time: now}
}

// transition moves the staged generation along one legal edge:
// shadow→canary, canary→active (the swap: the old active retires and
// the canary takes over user traffic), or shadow/canary→retired
// (rollback). d is nil for an unknown name.
func (d *deployment) transition(name string, to Stage, reason string, now time.Time) ([]TransitionEvent, error) {
	if d == nil || d.staged == nil {
		return nil, fmt.Errorf("serve: model %q has no staged generation", name)
	}
	st := d.staged
	if !legalTransition(st.Stage, to) {
		return nil, fmt.Errorf("serve: model %q: illegal transition %s -> %s", name, st.Stage, to)
	}
	if to == StageRetired && st.BundleID != "" && d.stamp != "" {
		// The staged generation is always the name's latest disk
		// publish, so its rolled-back bytes are what is on disk now.
		d.retiredDisk = st.BundleID
	}
	return d.enter(st, to, reason, now), nil
}

// promote advances the staged generation one step regardless of policy
// (the manual override) and reports the stage it reached.
func (d *deployment) promote(name, reason string, now time.Time) (Stage, []TransitionEvent, error) {
	var to Stage
	if d != nil && d.staged != nil {
		to = nextStage(d.staged.Stage)
	}
	if to == "" {
		return "", nil, fmt.Errorf("serve: model %q has no promotable staged generation", name)
	}
	evs, err := d.transition(name, to, reason, now)
	return to, evs, err
}

// placement is what the disk half learned about a freshly loaded bundle
// generation before handing it to the machine.
type placement struct {
	recovered Stage // the stage this exact bundle held at the last crash, if journaled
	// archived is the previous active, rebuilt from the bundle's
	// .active archive: what serves next to a recovered shadow, canary
	// or rolled-back generation. Nil when there is none to restore.
	archived  *Model
	immediate bool // the sidecar's pipeline bypass
}

// place decides and applies a loaded generation's entry stage: a bundle
// whose stage was recovered from the journal resumes there (with the
// archived active restored next to it); the first generation of a name
// and an `immediate` publish activate directly; anything else — a new
// generation of a served name — enters shadow.
func (d *deployment) place(m *Model, p placement, now time.Time) []TransitionEvent {
	// New bytes on disk supersede any rolled-back publish (the retired
	// case below re-records itself).
	d.retiredDisk = ""
	rec := p.recovered
	if rec != StageActive && p.archived == nil {
		rec = "" // nothing to serve next to a resumed stage: place as a fresh publish
	}
	switch rec {
	case StageActive:
		return d.enter(m, StageActive, "recovered active stage from journal", now)
	case StageShadow, StageCanary:
		evs := d.enter(p.archived, StageActive, "restored archived active alongside recovered "+string(rec), now)
		return append(evs, d.enter(m, rec, "recovered "+string(rec)+" stage from journal", now)...)
	case StageRetired:
		// A rolled-back bundle must not resurrect; the archived active
		// serves, and m's recorded stamp stops per-poll reloads of the
		// retired bytes.
		d.retiredDisk = m.BundleID
		return d.enter(p.archived, StageActive, "restored archived active; on-disk bundle "+m.BundleID+" stays retired", now)
	}
	switch {
	case d.active == nil:
		return d.enter(m, StageActive, "initial load", now)
	case p.immediate:
		return d.enter(m, StageActive, "immediate swap (lifecycle.json immediate)", now)
	}
	return d.enter(m, StageShadow, "new generation of a served model enters shadow", now)
}
