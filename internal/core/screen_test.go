package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"noble/internal/dataset"
	"noble/internal/mat"
	"noble/internal/nn/qlinear"
)

// heardFingerprints is n random perf-shape rows with ~30 % of WAPs heard,
// as in benchmarkWiFiPredictRows.
func heardFingerprints(width, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
		for j := range rows[i] {
			if rng.Float64() >= 0.7 {
				rows[i][j] = rng.Float64()
			}
		}
	}
	return rows
}

// requireScreenedLikeTwin runs every row of fps through passes of 1 to
// 40 rows — every row kernel alone and combined, and passes splitPass
// cuts into chunks — on the screened model and on its never-screened
// twin and requires the same predictions. It also requires that the screen itself
// answered nearly every row, so the comparison is not of the fp64 path
// with itself.
func requireScreenedLikeTwin(t *testing.T, screened, twin *WiFiModel, fps [][]float64) {
	t.Helper()
	screened.ScreenFineHead()
	if twin.ScreenBytes() != 0 {
		t.Fatal("the twin was screened")
	}
	head := screened.fineLayer()
	probe := mat.NewScreen(head.Weight.W) // the screen's answers, without the fp64 hand-back
	for rows := 1; rows <= 40; rows++ {
		total, answered := 0, 0
		for lo := 0; lo+rows <= len(fps); lo += rows {
			batch := fps[lo : lo+rows]
			got, want := screened.PredictBatch(batch), twin.PredictBatch(batch)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d-row pass at row %d: screened %+v, never-screened twin %+v", rows, lo+i, got[i], want[i])
				}
			}
			emb := screened.net.Trunk.Forward(mat.FromRows(batch), false)
			for _, c := range probe.ArgMax(emb, head.Bias.W.Data) {
				if c >= 0 {
					answered++
				}
			}
			total += rows
		}
		if screened.ScreenBytes() != 0 && answered < total*9/10 {
			t.Fatalf("%d-row passes: the screen answered %d of %d rows", rows, answered, total)
		}
	}
}

func TestWiFiScreenedMatchesNeverScreenedPerfShape(t *testing.T) {
	m := perfShapeWiFi()
	requireScreenedLikeTwin(t, m, perfShapeWiFi(), heardFingerprints(m.InputDim(), 240, 9))
}

func TestWiFiScreenedMatchesNeverScreenedTrained(t *testing.T) {
	ds := dataset.SynthUJI(dataset.SmallUJIConfig())
	cfg := DefaultWiFiConfig()
	cfg.Epochs = 2
	m := TrainWiFi(ds, cfg)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	twin := NewWiFiModel(ds, cfg)
	if err := twin.Load(&buf); err != nil {
		t.Fatal(err)
	}
	fps := make([][]float64, len(ds.Test))
	for i, s := range ds.Test {
		fps[i] = s.Features
	}
	requireScreenedLikeTwin(t, m, twin, fps)
}

// Loading other weights drops the screen, and a rebuilt one answers from
// the loaded weights.
func TestWiFiLoadAfterScreeningServesLoadedWeights(t *testing.T) {
	m, other := perfShapeWiFi(), perfShapeWiFi()
	for _, p := range other.net.Params() {
		mat.FillNormal(p.W, mat.NewRand(4), 0, 0.1)
	}
	m.ScreenFineHead()
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if n := m.ScreenBytes(); n != 0 {
		t.Fatalf("%d screen bytes survived Load", n)
	}
	requireScreenedLikeTwin(t, m, other, heardFingerprints(m.InputDim(), 40, 2))
}

// The owner building the screen while passes run (run under -race):
// every pass, before, during or after the build, answers what the
// never-screened twin answers.
func TestWiFiConcurrentScreenAndPredictAgree(t *testing.T) {
	ds := tinyWiFi()
	m := untrainedWiFi(ds, 1)
	x := testFingerprints(ds, 16)
	want := untrainedWiFi(ds, 1).PredictMatrix(x)
	const callers = 8
	got := make([][]WiFiPrediction, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			if g%2 == 0 {
				m.ScreenFineHead()
			}
			rows := []int{1, 4, 5, 8, 9, 16}[g%6]
			got[g] = m.PredictMatrix(mat.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols]))
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		for i, p := range got[g] {
			if p != want[i] {
				t.Fatalf("caller %d row %d: %+v, the never-screened twin gives %+v", g, i, p, want[i])
			}
		}
	}
}

// An int8 model never reads the fp64 head on its serving path, so it
// builds no screen.
func TestWiFiInt8BuildsNoScreen(t *testing.T) {
	ds := tinyWiFi()
	m := untrainedWiFi(ds, 1)
	if err := m.EnableInt8(&qlinear.Calibrator{Method: qlinear.CalibAbsMax}, dataset.FeaturesMatrix(ds.Val)); err != nil {
		t.Fatal(err)
	}
	m.ScreenFineHead()
	if n := m.ScreenBytes(); n != 0 {
		t.Fatalf("an int8 model built a %d-byte screen", n)
	}
}
