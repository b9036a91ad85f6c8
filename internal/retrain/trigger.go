package retrain

import (
	"fmt"
	"time"
)

// TriggerPolicy is when to retrain.
type TriggerPolicy struct {
	// MaxErrorDeltaM fires the drift trigger when a model's rolling
	// re-anchor error (mean over the scores accumulated since its
	// promotion-time baseline) exceeds the baseline mean by this many
	// meters. <= 0 disables the error trigger.
	MaxErrorDeltaM float64
	// MinSamples is how many post-baseline scores a judgment needs; the
	// trigger never fires on thin evidence.
	MinSamples int64
	// Every fires on a wall-clock schedule regardless of drift — the
	// find3-style periodic refresh, and the only trigger available to a
	// model whose active generation accumulates no error scores (an
	// active WiFi generation is never scored against its own fixes, so
	// its drift shows up in the session models it re-anchors, not in its
	// own histogram). <= 0 disables the schedule.
	Every time.Duration
}

// Sample is one observation of a model's ACTIVE generation: the
// cumulative count and sum behind its
// noble_lifecycle_reanchor_error_meters histogram plus its generation
// number, read directly from the registry.
type Sample struct {
	Model      string
	Generation int     // active generation identity; a change resets the baseline
	Scores     int64   // cumulative re-anchor score count
	ErrorSumM  float64 // cumulative re-anchor error sum, meters
}

// Decision says a model's deployment should retrain, and why.
type Decision struct {
	Model  string `json:"model"`
	Reason string `json:"reason"` // "drift" or "schedule"
	// DeltaM is the rolling-vs-baseline mean error gap for drift
	// decisions (0 for schedule).
	DeltaM float64 `json:"delta_m,omitempty"`
}

// Trigger reason values.
const (
	ReasonDrift    = "drift"
	ReasonSchedule = "schedule"
)

// TriggerState is one model's published trigger view (for
// /debug/retrain and tests).
type TriggerState struct {
	Generation   int       `json:"generation"`
	BaselineMean float64   `json:"baseline_mean_m"`
	RollingMean  float64   `json:"rolling_mean_m"`
	Samples      int64     `json:"samples"` // scores since baseline
	LastFired    time.Time `json:"last_fired,omitempty"`
	NextSchedule time.Time `json:"next_schedule,omitempty"`
}

// baseline pins a generation's promotion-time error level: the
// cumulative (scores, sum) at the first observation of that generation,
// whose mean is the evidence it earned promotion on.
type baseline struct {
	gen     int
	scores  int64
	sum     float64
	mean    float64
	meanSet bool
	fired   time.Time
	first   time.Time
	rolling float64
	samples int64
}

// Trigger turns a stream of Sample observations into retrain
// Decisions. It is a pure state machine over the values it is fed — no
// clocks, no I/O — so the drift policy is unit-testable on synthetic
// error series. Not safe for concurrent use.
type Trigger struct {
	policy TriggerPolicy
	models map[string]*baseline
}

// NewTrigger builds a trigger with the given policy.
func NewTrigger(p TriggerPolicy) *Trigger {
	return &Trigger{policy: p, models: map[string]*baseline{}}
}

// Observe folds one round of samples into the trigger state and
// returns at most one Decision per model:
//
//   - A model's first observation (or its first after the active
//     generation changed) establishes the baseline — promotion-time
//     cumulative scores/sum — and never fires.
//   - Once MinSamples scores accumulate past the baseline, the rolling
//     mean of those post-baseline scores is compared to the baseline
//     mean; exceeding it by MaxErrorDeltaM fires a drift decision. A
//     generation whose baseline had zero scores sets its baseline mean
//     from the first MinSamples window instead (there is no promotion
//     evidence to compare against).
//   - Independently, Every fires a schedule decision when that much
//     wall clock passed since the model's baseline was established or
//     the trigger last fired for it.
//
// Firing (either reason) re-baselines the model at the current
// cumulative state, so one drift episode yields one retrain, not one
// per round.
func (t *Trigger) Observe(now time.Time, samples []Sample) []Decision {
	var out []Decision
	for _, s := range samples {
		b, ok := t.models[s.Model]
		if !ok || b.gen != s.Generation {
			nb := &baseline{gen: s.Generation, scores: s.Scores, sum: s.ErrorSumM, first: now}
			if s.Scores > 0 {
				nb.mean = s.ErrorSumM / float64(s.Scores)
				nb.meanSet = true
			}
			t.models[s.Model] = nb
			continue
		}
		newScores := s.Scores - b.scores
		b.samples = newScores
		if newScores > 0 {
			b.rolling = (s.ErrorSumM - b.sum) / float64(newScores)
		}
		if d := t.judge(now, s, b); d != nil {
			out = append(out, *d)
		}
	}
	return out
}

func (t *Trigger) judge(now time.Time, s Sample, b *baseline) *Decision {
	if t.policy.MaxErrorDeltaM > 0 && b.samples >= t.policy.MinSamples && b.samples > 0 {
		if !b.meanSet {
			// No promotion-time evidence: adopt the first full window as
			// the baseline level instead of firing against zero.
			b.mean = b.rolling
			b.meanSet = true
			b.scores = s.Scores
			b.sum = s.ErrorSumM
			b.samples = 0
			return nil
		}
		if delta := b.rolling - b.mean; delta > t.policy.MaxErrorDeltaM {
			b.fired = now
			b.scores = s.Scores
			b.sum = s.ErrorSumM
			b.samples = 0
			// The episode's level becomes the new reference: holding at
			// the degraded mean never refires (one episode, one retrain —
			// recovery is the promoted retrain resetting the baseline via
			// its generation change), only degrading FURTHER does.
			b.mean = b.rolling
			return &Decision{Model: s.Model, Reason: ReasonDrift, DeltaM: delta}
		}
	}
	if t.policy.Every > 0 {
		since := b.first
		if !b.fired.IsZero() {
			since = b.fired
		}
		if now.Sub(since) >= t.policy.Every {
			b.fired = now
			return &Decision{Model: s.Model, Reason: ReasonSchedule}
		}
	}
	return nil
}

// NoteRun marks a retrain as having run for the model (however it was
// initiated), resetting its schedule clock.
func (t *Trigger) NoteRun(model string, at time.Time) {
	if b, ok := t.models[model]; ok {
		b.fired = at
	}
}

// State snapshots the per-model trigger view, keyed by model.
func (t *Trigger) State() map[string]TriggerState {
	out := make(map[string]TriggerState, len(t.models))
	for m, b := range t.models {
		st := TriggerState{
			Generation:   b.gen,
			BaselineMean: b.mean,
			RollingMean:  b.rolling,
			Samples:      b.samples,
			LastFired:    b.fired,
		}
		if t.policy.Every > 0 {
			since := b.first
			if !b.fired.IsZero() {
				since = b.fired
			}
			st.NextSchedule = since.Add(t.policy.Every)
		}
		out[m] = st
	}
	return out
}

// Describe renders the policy for logs and status pages.
func (p TriggerPolicy) Describe() string {
	parts := ""
	if p.MaxErrorDeltaM > 0 {
		parts = fmt.Sprintf("drift >%.2fm over baseline (min %d samples)", p.MaxErrorDeltaM, p.MinSamples)
	}
	if p.Every > 0 {
		if parts != "" {
			parts += ", "
		}
		parts += "every " + p.Every.String()
	}
	if parts == "" {
		return "manual only"
	}
	return parts
}
