package train

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"noble/internal/core"
	"noble/internal/dataset"
	"noble/internal/serve"
)

// tinyRun is a training run on a miniature synthetic survey: seconds
// become milliseconds, every code path of Run stays the same.
func tinyRun(t *testing.T) (Options, *[]string) {
	t.Helper()
	dcfg := dataset.SmallIPINConfig()
	dcfg.NumWAPs = 16
	dcfg.RefSpacing = 8
	dcfg.SamplesPerRef = 3
	dcfg.TestSamplesPerRef = 1
	dcfg.Seed = 11
	cfg := core.DefaultWiFiConfig()
	cfg.Hidden = []int{16}
	cfg.Epochs = 2
	var lines []string
	return Options{
		Data:       dataset.SynthIPIN(dcfg),
		Spec:       &serve.WiFiBundle{Plan: "ipin", Dataset: dcfg},
		Config:     cfg,
		BundleDir:  t.TempDir(),
		BundleName: "tiny",
		Printf:     func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) },
	}, &lines
}

func TestRunPublishesALoadableBundle(t *testing.T) {
	o, lines := tinyRun(t)
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestStats == nil || res.Calib != nil || res.BundlePath != o.BundleDir+"/tiny" {
		t.Fatalf("fp64 result %+v", res)
	}
	m, err := serve.LoadBundle(res.BundlePath)
	if err != nil {
		t.Fatalf("serve.LoadBundle refuses what Run published: %v", err)
	}
	if m.Kind != serve.KindWiFi || m.WiFi == nil || m.WiFi.Classes() != res.Model.Classes() {
		t.Fatalf("loaded %+v, trained %d classes", m, res.Model.Classes())
	}
	if want := fmt.Sprintf("training on %d samples (", len(o.Data.Train)); !strings.HasPrefix((*lines)[0], want) {
		t.Fatalf("first progress line %q, want prefix %q", (*lines)[0], want)
	}
}

// A blocked int8 publish writes nothing, whether the budget is
// unmeetable or the calibration destroys accuracy: clipping activations
// at their 0.5th percentile fails the default budget on noble-train's
// small synthetic IPIN survey after two epochs. (The miniature survey
// is no use there: its barely trained model gets better when clipped.)
func TestRunBlockedInt8PublishWritesNothing(t *testing.T) {
	for name, block := range map[string]func(*Options){
		"unmeetable budget": func(o *Options) { o.ErrorBudgetPct = -1 },
		"0.5th percentile clip": func(o *Options) {
			dcfg := dataset.SmallIPINConfig()
			o.Data, o.Spec.Dataset = dataset.SynthIPIN(dcfg), dcfg
			o.Config = core.DefaultWiFiConfig()
			o.Config.Epochs = 2
			o.CalibMethod, o.CalibPercentile = "percentile", 0.5
		},
	} {
		t.Run(name, func(t *testing.T) {
			o, _ := tinyRun(t)
			o.Precision = core.PrecisionInt8
			o.SavePath = o.BundleDir + "/weights.gob"
			block(&o)
			_, err := Run(o)
			if err == nil || !strings.Contains(err.Error(), "int8 publish blocked") {
				t.Fatalf("err = %v, want int8 publish blocked", err)
			}
			left, _ := os.ReadDir(o.BundleDir)
			if len(left) != 0 {
				t.Fatalf("a blocked publish left %d entr(ies) in the bundle dir, first %q", len(left), left[0].Name())
			}
		})
	}
}

func TestRunCountsExtraSamplesInTheFirstLine(t *testing.T) {
	o, lines := tinyRun(t)
	o.BundleDir = ""
	o.Extra = o.Data.Test[:5]
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("training on %d samples + 5 harvested fixes (", len(o.Data.Train)); !strings.HasPrefix((*lines)[0], want) {
		t.Fatalf("first progress line %q, want prefix %q", (*lines)[0], want)
	}
}
