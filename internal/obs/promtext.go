package obs

import (
	"fmt"
	"io"
)

// Family is one metric family in the Prometheus text exposition format.
// NewFamily writes the family's HELP and TYPE lines — once per family,
// by construction — and the returned value writes its samples. Write
// errors are dropped: the writer is a scrape response or a buffer, and
// a scrape that lost its connection has nobody to report to.
type Family struct {
	w    io.Writer
	name string
}

// NewFamily starts a family of the given type ("counter", "gauge",
// "summary", "histogram").
func NewFamily(w io.Writer, name, typ, help string) Family {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return Family{w, name}
}

// Single writes a family that is one unlabelled sample.
func Single(w io.Writer, name, typ, help string, value any) {
	NewFamily(w, name, typ, help).Sample("", "", value)
}

// Sample writes one sample line: the family name plus suffix ("" or a
// summary/histogram part such as "_sum"), the label pairs if any
// (`k="v",k2="v2"`, already quoted), and the value — a float64 with six
// decimals, any integer type as it is.
func (f Family) Sample(suffix, labels string, value any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	if v, ok := value.(float64); ok {
		fmt.Fprintf(f.w, "%s%s%s %.6f\n", f.name, suffix, labels, v)
		return
	}
	fmt.Fprintf(f.w, "%s%s%s %d\n", f.name, suffix, labels, value)
}

// Histogram writes one labelled series of a cumulative histogram
// family: a _bucket line per upper bound (counts[i] is bucket i's own
// count; the lines cumulate), the +Inf bucket, _sum and _count. count
// is the total, including observations past the last bound.
func Histogram[B int | float64](f Family, labels string, bounds []B, counts []int64, count int64, sum any) {
	var cum int64
	for i, le := range bounds {
		cum += counts[i]
		f.Sample("_bucket", fmt.Sprintf("%s,le=\"%v\"", labels, le), cum)
	}
	f.Sample("_bucket", labels+`,le="+Inf"`, count)
	f.Sample("_sum", labels, sum)
	f.Sample("_count", labels, count)
}
