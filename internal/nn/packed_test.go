package nn

import (
	"bytes"
	"testing"

	"noble/internal/mat"
)

// sameBits fails unless got and want agree on every element exactly.
func sameBits(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %d×%d, want %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// packedNet is a trunk-and-head stack with every layer kind that has
// weights to pack, wide enough for full panels and a leftover column.
func packedNet(seed int64) (*Sequential, *mat.Dense) {
	rng := mat.NewRand(seed)
	net := NewMLP("t", 12, []int{16}, true, rng)
	net.Add(NewBlockDense("blk", 4, 4, 5, InitXavier, rng))
	net.Add(NewDense("head", 20, 9, InitXavier, rng))
	x := mat.New(33, 12)
	mat.FillNormal(x, rng, 0, 1)
	return net, x
}

func TestPackedForwardMatchesUnpackedBitForBit(t *testing.T) {
	packed, x := packedNet(3)
	plain, _ := packedNet(3)
	packed.Pack()
	if PackedBytes(packed.Params()) == 0 && PackedBytes(plain.Params()) != 0 {
		t.Fatal("Pack packed the wrong network")
	}
	for rows := 1; rows <= x.Rows; rows++ {
		xb := mat.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
		sameBits(t, "packed forward", packed.Forward(xb, false), plain.Forward(xb, false))
	}
}

// Every way this package moves a weight must leave no packed copy of the
// old value behind: the copy is a snapshot, and serving a stale one would
// answer from weights the model no longer has.
func TestPackedCopyDroppedWheneverWeightsMove(t *testing.T) {
	target := mat.New(33, 9)
	step := func(net *Sequential, x *mat.Dense, opt Optimizer) {
		loss := NewMSE()
		loss.Forward(net.Forward(x, true), target)
		net.Backward(loss.Backward())
		opt.Step(net.Params())
	}
	for name, move := range map[string]func(net, twin *Sequential, x *mat.Dense){
		"training forward": func(net, twin *Sequential, x *mat.Dense) {
			net.Forward(x, true)
			twin.Forward(x, true) // batch-norm running statistics move too
		},
		"sgd step": func(net, twin *Sequential, x *mat.Dense) {
			step(net, x, NewSGD(0.1, 0))
			step(twin, x, NewSGD(0.1, 0))
		},
		"adam step": func(net, twin *Sequential, x *mat.Dense) {
			step(net, x, NewAdam(0.01))
			step(twin, x, NewAdam(0.01))
		},
		"optimizer step after a late pack": func(net, twin *Sequential, x *mat.Dense) {
			loss, opt := NewMSE(), NewSGD(0.1, 0)
			loss.Forward(net.Forward(x, true), target)
			net.Backward(loss.Backward())
			net.Pack() // between the training forward and the step
			opt.Step(net.Params())
			step(twin, x, NewSGD(0.1, 0))
		},
		"load": func(net, twin *Sequential, x *mat.Dense) {
			other, _ := packedNet(99)
			var buf bytes.Buffer
			if err := SaveParams(&buf, other.Params()); err != nil {
				t.Fatal(err)
			}
			saved := buf.Bytes()
			if err := LoadParams(bytes.NewReader(saved), net.Params()); err != nil {
				t.Fatal(err)
			}
			if err := LoadParams(bytes.NewReader(saved), twin.Params()); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			net, x := packedNet(7)
			twin, _ := packedNet(7) // never packed or screened
			net.Pack()
			screenAll(net)
			if PackedBytes(net.Params()) == 0 || ScreenBytes(net.Params()) == 0 {
				t.Skip("no packed layout or screen on this host")
			}
			move(net, twin, x)
			if n := PackedBytes(net.Params()); n != 0 {
				t.Fatalf("%d packed bytes survived", n)
			}
			if n := ScreenBytes(net.Params()); n != 0 {
				t.Fatalf("%d screen bytes survived", n)
			}
			sameBits(t, "inference after the move", net.Forward(x, false), twin.Forward(x, false))
			sameHeadClasses(t, "argmax after the move", net, twin)
			net.Pack()
			screenAll(net)
			sameBits(t, "inference after re-packing", net.Forward(x, false), twin.Forward(x, false))
			sameHeadClasses(t, "argmax after re-screening", net, twin)
		})
	}
}

// screenAll builds the screen of every dense weight matrix of net.
func screenAll(net *Sequential) {
	for _, l := range net.Layers {
		switch l := l.(type) {
		case *Dense:
			l.Screen()
		case *BlockDense:
			l.Inner.Screen()
		}
	}
}

// sameHeadClasses fails unless net's head answers 1–4-row passes with
// the argmax twin's plain forward gives — from its screen where one is
// current (a stale one would answer from the old weights).
func sameHeadClasses(t *testing.T, what string, net, twin *Sequential) {
	t.Helper()
	head, twinHead := net.Layers[len(net.Layers)-1].(*Dense), twin.Layers[len(twin.Layers)-1].(*Dense)
	x := mat.New(4, head.In)
	mat.FillNormal(x, mat.NewRand(11), 0, 1)
	for rows := 1; rows <= x.Rows; rows++ {
		xb := mat.FromSlice(rows, x.Cols, x.Data[:rows*x.Cols])
		classes := head.ScreenedArgMax(xb)
		if classes == nil {
			classes = make([]int, rows)
			for i := range classes {
				classes[i] = mat.ArgMax(head.Forward(xb, false).Row(i))
			}
		}
		want := twinHead.Forward(xb, false)
		for i, c := range classes {
			if w := mat.ArgMax(want.Row(i)); c != w {
				t.Fatalf("%s: %d-row pass, row %d: class %d, the twin's logits give %d", what, rows, i, c, w)
			}
		}
	}
}

// The screen answers exactly what the logits would, and only the
// passes it is for: under mat.PackedMinRows rows, once built.
func TestScreenedArgMaxMatchesForward(t *testing.T) {
	net, _ := packedNet(5)
	head := net.Layers[len(net.Layers)-1].(*Dense)
	x := mat.New(mat.PackedMinRows, head.In)
	mat.FillNormal(x, mat.NewRand(2), 0, 1)
	one := mat.FromSlice(1, x.Cols, x.Data[:x.Cols])
	if head.ScreenedArgMax(one) != nil {
		t.Fatal("answered before the owner built a screen")
	}
	head.Screen()
	if ScreenBytes(head.Params()) == 0 {
		t.Skip("no screen on this host")
	}
	if head.ScreenedArgMax(x) != nil {
		t.Fatalf("answered a %d-row pass, which the packed panels serve", x.Rows)
	}
	sameHeadClasses(t, "screened", net, net)
	if head.ScreenedArgMax(one) == nil {
		t.Fatal("the screen did not answer a lone row")
	}
}

func TestPackIsIdempotent(t *testing.T) {
	net, _ := packedNet(5)
	net.Pack()
	before := make([]*mat.Packed, 0)
	for _, p := range net.Params() {
		before = append(before, p.packed.Load())
	}
	net.Pack()
	for i, p := range net.Params() {
		if p.packed.Load() != before[i] {
			t.Fatalf("param %s was packed again", p.Name)
		}
	}
}
