package obs

import (
	"strings"
	"testing"
)

// TestFamilyText pins the exposition format every renderer in the tree
// now shares: HELP and TYPE once per family, label braces only when
// there are labels, floats at six decimals, and histogram buckets
// cumulated with +Inf at the total.
func TestFamilyText(t *testing.T) {
	var b strings.Builder
	f := NewFamily(&b, "noble_x_total", "counter", "An x.")
	f.Sample("", "", int64(3))
	f.Sample("", `k="v"`, uint32(4))
	f.Sample("_sum", `k="v"`, 0.5)
	Single(&b, "noble_one", "gauge", "A one.", 2)
	h := NewFamily(&b, "noble_h", "histogram", "An h.")
	Histogram(h, `kind="a"`, []int{1, 2}, []int64{1, 2, 4}, 7, int64(30))
	Histogram(h, `kind="b"`, []float64{0.5, 1}, []int64{0, 1, 0}, 1, 0.75)
	want := `# HELP noble_x_total An x.
# TYPE noble_x_total counter
noble_x_total 3
noble_x_total{k="v"} 4
noble_x_total_sum{k="v"} 0.500000
# HELP noble_one A one.
# TYPE noble_one gauge
noble_one 2
# HELP noble_h An h.
# TYPE noble_h histogram
noble_h_bucket{kind="a",le="1"} 1
noble_h_bucket{kind="a",le="2"} 3
noble_h_bucket{kind="a",le="+Inf"} 7
noble_h_sum{kind="a"} 30
noble_h_count{kind="a"} 7
noble_h_bucket{kind="b",le="0.5"} 0
noble_h_bucket{kind="b",le="1"} 1
noble_h_bucket{kind="b",le="+Inf"} 1
noble_h_sum{kind="b"} 0.750000
noble_h_count{kind="b"} 1
`
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}
