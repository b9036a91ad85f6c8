package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// snapshot is the on-wire form of a parameter set: names, shapes, and flat
// values, in declaration order.
type snapshot struct {
	Names  []string
	Shapes [][2]int
	Values [][]float64
}

// SaveParams serializes the values of params to w using encoding/gob.
// Gradients and optimizer state are not persisted: a loaded model is ready
// for inference, and training can resume with a fresh optimizer.
func SaveParams(w io.Writer, params []*Param) error {
	snap := snapshot{}
	for _, p := range params {
		snap.Names = append(snap.Names, p.Name)
		snap.Shapes = append(snap.Shapes, [2]int{p.W.Rows, p.W.Cols})
		snap.Values = append(snap.Values, append([]float64(nil), p.W.Data...))
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadParams restores parameter values previously written by SaveParams
// into params. The parameter list must match in order, name and shape,
// and every value must be finite — the kernels' zero skip (mat.MatMulInto)
// is exact only over finite weights, so an Inf or NaN would make answers
// depend on batch size. Any violation is an error; validation happens
// before any write, so a refused snapshot leaves params as they were.
// Packed copies and screens of the overwritten values (Param.Pack,
// Param.Screen) are dropped.
func LoadParams(r io.Reader, params []*Param) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decoding parameter snapshot: %w", err)
	}
	if len(snap.Names) != len(params) || len(snap.Shapes) != len(params) || len(snap.Values) != len(params) {
		return fmt.Errorf("nn: snapshot has %d names, %d shapes and %d value lists, model has %d params",
			len(snap.Names), len(snap.Shapes), len(snap.Values), len(params))
	}
	for i, p := range params {
		if snap.Names[i] != p.Name {
			return fmt.Errorf("nn: param %d name %q, snapshot has %q", i, p.Name, snap.Names[i])
		}
		if snap.Shapes[i] != [2]int{p.W.Rows, p.W.Cols} {
			return fmt.Errorf("nn: param %q shape %d×%d, snapshot has %d×%d",
				p.Name, p.W.Rows, p.W.Cols, snap.Shapes[i][0], snap.Shapes[i][1])
		}
		if len(snap.Values[i]) != len(p.W.Data) {
			return fmt.Errorf("nn: param %q has %d values in snapshot, want %d",
				p.Name, len(snap.Values[i]), len(p.W.Data))
		}
		for j, v := range snap.Values[i] {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("nn: param %q value %d in snapshot is %v, want a finite number", p.Name, j, v)
			}
		}
	}
	for i, p := range params {
		p.dropCopies()
		copy(p.W.Data, snap.Values[i])
	}
	return nil
}
