package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// Tests of the stage machine alone (stage.go): no Registry, no lock, no
// bundle directory. Every case checks the three things the machine
// owns — slot contents, generation numbers, emitted events.

var (
	allStages = []Stage{"", StageShadow, StageCanary, StageActive, StageRetired}
	machineT0 = time.Unix(1000, 0)
	machineT1 = time.Unix(2000, 0)
)

// gen is a generation as the disk half hands it over: named, with a
// bundle ID, prepared.
func gen(id string) *Model {
	m := &Model{Name: "m", BundleID: id}
	prepare(m, machineT0)
	return m
}

func ev(id string, from, to Stage, reason string) TransitionEvent {
	return TransitionEvent{Model: "m", BundleID: id, From: from, To: to, Reason: reason, Time: machineT1}
}

// served returns a deployment with generation 1 ("A") active and, for
// staged shadow or canary, generation 2 ("B") staged there — built at
// machineT0 through the machine itself.
func served(t *testing.T, staged Stage) (d *deployment, a, b *Model) {
	t.Helper()
	d = &deployment{stamp: "on-disk"}
	a = gen("A")
	d.place(a, placement{}, machineT0)
	if staged == "" {
		return d, a, nil
	}
	b = gen("B")
	d.place(b, placement{}, machineT0)
	if staged == StageCanary {
		if _, err := d.transition("m", StageCanary, "setup", machineT0); err != nil {
			t.Fatal(err)
		}
	}
	if d.active != a || d.staged != b || b.Stage != staged {
		t.Fatalf("setup: active=%v staged=%v", d.active, d.staged)
	}
	return d, a, b
}

// checkGen asserts one generation's number and stage, and that a stage
// entered at machineT1 is stamped with it.
func checkGen(t *testing.T, m *Model, wantGen int, wantStage Stage, movedNow bool) {
	t.Helper()
	if m.Generation != wantGen || m.Stage != wantStage {
		t.Errorf("bundle %s: generation %d stage %q, want %d %q", m.BundleID, m.Generation, m.Stage, wantGen, wantStage)
	}
	if movedNow && !m.StageSince.Equal(machineT1) {
		t.Errorf("bundle %s: StageSince %v, want the transition's time", m.BundleID, m.StageSince)
	}
}

func checkEvents(t *testing.T, got, want []TransitionEvent) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events:\n got  %+v\n want %+v", got, want)
	}
}

func TestLegalTransitionTable(t *testing.T) {
	legal := map[[2]Stage]bool{
		{StageShadow, StageCanary}:  true,
		{StageShadow, StageRetired}: true,
		{StageCanary, StageActive}:  true,
		{StageCanary, StageRetired}: true,
	}
	for _, from := range allStages {
		for _, to := range allStages {
			if got := legalTransition(from, to); got != legal[[2]Stage{from, to}] {
				t.Errorf("legalTransition(%q, %q) = %v", from, to, got)
			}
		}
	}
}

// TestTransitionEveryPair drives deployment.transition over every
// (staged stage, target) pair: an illegal edge errors and changes
// nothing; a legal one moves the staged generation, keeps its number,
// and on activation retires the old active first.
func TestTransitionEveryPair(t *testing.T) {
	for _, from := range []Stage{StageShadow, StageCanary} {
		for _, to := range allStages {
			t.Run(string(from)+"->"+string(to), func(t *testing.T) {
				d, a, b := served(t, from)
				evs, err := d.transition("m", to, "because", machineT1)
				if !legalTransition(from, to) {
					if err == nil || evs != nil {
						t.Fatalf("illegal edge: err=%v events=%v", err, evs)
					}
					if d.active != a || d.staged != b || d.retiredDisk != "" {
						t.Fatal("illegal edge moved a slot")
					}
					checkGen(t, a, 1, StageActive, false)
					checkGen(t, b, 2, from, false)
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				switch to {
				case StageCanary:
					if d.active != a || d.staged != b {
						t.Fatal("shadow->canary must keep both slots")
					}
					checkEvents(t, evs, []TransitionEvent{ev("B", from, StageCanary, "because")})
				case StageActive:
					if d.active != b || d.staged != nil {
						t.Fatal("promotion must move the canary into the active slot and clear the staged one")
					}
					checkGen(t, a, 1, StageRetired, true)
					checkEvents(t, evs, []TransitionEvent{
						ev("A", StageActive, StageRetired, "superseded by promoted canary B"),
						ev("B", from, StageActive, "because"),
					})
				case StageRetired:
					if d.active != a || d.staged != nil {
						t.Fatal("rollback must clear the staged slot and leave the active")
					}
					if d.retiredDisk != "B" {
						t.Fatalf("retiredDisk %q: a rolled-back disk bundle must be remembered", d.retiredDisk)
					}
					checkEvents(t, evs, []TransitionEvent{ev("B", from, StageRetired, "because")})
				}
				checkGen(t, b, 2, to, true)
				if d.gens != 2 {
					t.Fatalf("a transition numbered a generation: counter %d", d.gens)
				}
			})
		}
	}

	t.Run("nothing staged", func(t *testing.T) {
		d, a, _ := served(t, "")
		for _, to := range allStages {
			if evs, err := d.transition("m", to, "because", machineT1); err == nil || evs != nil {
				t.Errorf("to %q with nothing staged: err=%v events=%v", to, err, evs)
			}
		}
		if d.active != a {
			t.Fatal("active slot moved")
		}
		var unknown *deployment
		if _, err := unknown.transition("m", StageCanary, "because", machineT1); err == nil {
			t.Fatal("unknown name must error")
		}
	})

	t.Run("programmatic rollback is not remembered", func(t *testing.T) {
		d, _, _ := served(t, StageShadow)
		d.stamp = ""
		if _, err := d.transition("m", StageRetired, "because", machineT1); err != nil {
			t.Fatal(err)
		}
		if d.retiredDisk != "" {
			t.Fatalf("retiredDisk %q without a bundle on disk", d.retiredDisk)
		}
	})
}

// TestPromoteOneStep: the manual override from every stage.
func TestPromoteOneStep(t *testing.T) {
	want := map[Stage]Stage{StageShadow: StageCanary, StageCanary: StageActive}
	for _, from := range allStages {
		if got := nextStage(from); got != want[from] {
			t.Errorf("nextStage(%q) = %q, want %q", from, got, want[from])
		}
	}
	for from, to := range want {
		d, _, b := served(t, from)
		got, evs, err := d.promote("m", "manual", machineT1)
		if err != nil || got != to || len(evs) == 0 || evs[len(evs)-1] != ev("B", from, to, "manual") {
			t.Errorf("promote from %s: to=%q err=%v events=%+v", from, got, err, evs)
		}
		checkGen(t, b, 2, to, true)
	}
	d, a, _ := served(t, "")
	if to, evs, err := d.promote("m", "manual", machineT1); err == nil || to != "" || evs != nil {
		t.Errorf("promote with nothing staged: to=%q err=%v events=%v", to, err, evs)
	}
	checkGen(t, a, 1, StageActive, false)
	var unknown *deployment
	if _, _, err := unknown.promote("m", "manual", machineT1); err == nil {
		t.Error("promote of an unknown name must error")
	}
}

// TestPlaceEveryCase is the placement decision over {recovered stage,
// usable archive, immediate, first load, default shadow}.
func TestPlaceEveryCase(t *testing.T) {
	const (
		fresh      = "fresh"         // no generation yet
		live       = "served"        // A active
		liveStaged = "served+staged" // A active, B in shadow
	)
	type want struct {
		active, staged string         // bundle IDs in the slots after placement
		gens           map[string]int // generation number per bundle ID (0: never numbered)
		events         []TransitionEvent
		retiredDisk    string
	}
	cases := []struct {
		name     string
		state    string
		p        placement
		archived bool // hand the machine a restored archive "Z"
		want     want
	}{
		{"first load", fresh, placement{}, false, want{
			active: "N", gens: map[string]int{"N": 1},
			events: []TransitionEvent{ev("N", "", StageActive, "initial load")}}},
		{"first load ignores immediate", fresh, placement{immediate: true}, false, want{
			active: "N", gens: map[string]int{"N": 1},
			events: []TransitionEvent{ev("N", "", StageActive, "initial load")}}},
		{"default shadow", live, placement{}, false, want{
			active: "A", staged: "N", gens: map[string]int{"A": 1, "N": 2},
			events: []TransitionEvent{ev("N", "", StageShadow, "new generation of a served model enters shadow")}}},
		{"staged superseded by a newer publish", liveStaged, placement{}, false, want{
			active: "A", staged: "N", gens: map[string]int{"A": 1, "B": 2, "N": 3},
			events: []TransitionEvent{
				ev("B", StageShadow, StageRetired, "superseded by newer publish N"),
				ev("N", "", StageShadow, "new generation of a served model enters shadow")}}},
		{"immediate swap", live, placement{immediate: true}, false, want{
			active: "N", gens: map[string]int{"A": 1, "N": 2},
			events: []TransitionEvent{
				ev("A", StageActive, StageRetired, "replaced by N"),
				ev("N", "", StageActive, "immediate swap (lifecycle.json immediate)")}}},
		{"immediate swap leaves a parked staged generation", liveStaged, placement{immediate: true}, false, want{
			active: "N", staged: "B", gens: map[string]int{"A": 1, "B": 2, "N": 3},
			events: []TransitionEvent{
				ev("A", StageActive, StageRetired, "replaced by N"),
				ev("N", "", StageActive, "immediate swap (lifecycle.json immediate)")}}},
		{"recovered active", fresh, placement{recovered: StageActive}, false, want{
			active: "N", gens: map[string]int{"N": 1},
			events: []TransitionEvent{ev("N", "", StageActive, "recovered active stage from journal")}}},
		{"recovered active needs no archive", fresh, placement{recovered: StageActive}, true, want{
			active: "N", gens: map[string]int{"N": 1, "Z": 0},
			events: []TransitionEvent{ev("N", "", StageActive, "recovered active stage from journal")}}},
		{"recovered shadow with archive", fresh, placement{recovered: StageShadow}, true, want{
			active: "Z", staged: "N", gens: map[string]int{"Z": 1, "N": 2},
			events: []TransitionEvent{
				ev("Z", "", StageActive, "restored archived active alongside recovered shadow"),
				ev("N", "", StageShadow, "recovered shadow stage from journal")}}},
		{"recovered canary with archive", fresh, placement{recovered: StageCanary}, true, want{
			active: "Z", staged: "N", gens: map[string]int{"Z": 1, "N": 2},
			events: []TransitionEvent{
				ev("Z", "", StageActive, "restored archived active alongside recovered canary"),
				ev("N", "", StageCanary, "recovered canary stage from journal")}}},
		{"recovered retired with archive", fresh, placement{recovered: StageRetired}, true, want{
			active: "Z", gens: map[string]int{"Z": 1, "N": 0}, retiredDisk: "N",
			events: []TransitionEvent{ev("Z", "", StageActive, "restored archived active; on-disk bundle N stays retired")}}},
		{"recovered shadow without archive", fresh, placement{recovered: StageShadow}, false, want{
			active: "N", gens: map[string]int{"N": 1},
			events: []TransitionEvent{ev("N", "", StageActive, "initial load")}}},
		{"recovered canary without archive", fresh, placement{recovered: StageCanary}, false, want{
			active: "N", gens: map[string]int{"N": 1},
			events: []TransitionEvent{ev("N", "", StageActive, "initial load")}}},
		{"recovered retired without archive", fresh, placement{recovered: StageRetired}, false, want{
			active: "N", gens: map[string]int{"N": 1},
			events: []TransitionEvent{ev("N", "", StageActive, "initial load")}}},
		{"recovered canary without archive on a served name", live, placement{recovered: StageCanary}, false, want{
			active: "A", staged: "N", gens: map[string]int{"A": 1, "N": 2},
			events: []TransitionEvent{ev("N", "", StageShadow, "new generation of a served model enters shadow")}}},
		{"unknown recovered stage", live, placement{recovered: "bogus"}, true, want{
			active: "A", staged: "N", gens: map[string]int{"A": 1, "N": 2, "Z": 0},
			events: []TransitionEvent{ev("N", "", StageShadow, "new generation of a served model enters shadow")}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			byID := map[string]*Model{}
			d := &deployment{retiredDisk: "stale"} // any placement supersedes an older rollback
			switch c.state {
			case live:
				d, byID["A"], _ = served(t, "")
			case liveStaged:
				d, byID["A"], byID["B"] = served(t, StageShadow)
			}
			n := gen("N")
			byID["N"] = n
			if c.archived {
				c.p.archived = gen("Z")
				byID["Z"] = c.p.archived
			}

			checkEvents(t, d.place(n, c.p, machineT1), c.want.events)

			slotID := func(m *Model) string {
				if m == nil {
					return ""
				}
				return m.BundleID
			}
			if slotID(d.active) != c.want.active || slotID(d.staged) != c.want.staged {
				t.Errorf("slots: active=%q staged=%q, want %q %q", slotID(d.active), slotID(d.staged), c.want.active, c.want.staged)
			}
			if d.retiredDisk != c.want.retiredDisk {
				t.Errorf("retiredDisk %q, want %q", d.retiredDisk, c.want.retiredDisk)
			}
			for id, wantGen := range c.want.gens {
				if byID[id].Generation != wantGen {
					t.Errorf("bundle %s numbered %d, want %d", id, byID[id].Generation, wantGen)
				}
			}
			// Every event's destination is the stage its generation now
			// holds, stamped with the placement's time.
			for _, e := range c.want.events {
				checkGen(t, byID[e.BundleID], c.want.gens[e.BundleID], e.To, true)
			}
		})
	}
}

// TestEnterResetsTheEvaluationWindow: each stage is judged on its own
// evidence, and a retired generation keeps its last window for the
// post-mortem.
func TestEnterResetsTheEvaluationWindow(t *testing.T) {
	d, a, b := served(t, StageShadow)
	a.Stats.RecordScore(1)
	b.Stats.RecordMirror(3, 0.5)
	if _, err := d.transition("m", StageCanary, "window complete", machineT1); err != nil {
		t.Fatal(err)
	}
	if snap := b.Stats.Snapshot(); snap.Samples() != 0 || !snap.Since.Equal(machineT1) {
		t.Fatalf("canary window not reset: %+v", snap)
	}
	b.Stats.RecordMirror(2, 0.5)
	if _, err := d.transition("m", StageActive, "promoted", machineT1); err != nil {
		t.Fatal(err)
	}
	if a.Stats.Snapshot().Scores != 1 {
		t.Fatal("retiring a generation must keep its last window")
	}
	if b.Stats.Snapshot().Samples() != 0 {
		t.Fatal("the new active starts a fresh window")
	}
}

// TestStageMachineIsPure holds stage.go to its header: it may not
// import the packages that would let it touch a disk, a log or a lock,
// and it may not read the clock.
func TestStageMachineIsPure(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "stage.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"os": true, "io": true, "log": true, "path/filepath": true, "sync": true}
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if banned[path] {
			t.Errorf("stage.go imports %q", path)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && sel.Sel.Name == "Now" {
				t.Errorf("stage.go reads the clock (time.Now); take now from the caller")
			}
		}
		return true
	})
}
