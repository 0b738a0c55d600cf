package cli

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paravis/internal/core"
	"paravis/internal/workloads"
)

func TestDefinesSet(t *testing.T) {
	d := Defines{}
	if err := d.Set("DIM=64"); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("FLAG"); err != nil {
		t.Fatal(err)
	}
	if d["DIM"] != "64" || d["FLAG"] != "1" {
		t.Fatalf("defines = %v", d)
	}
}

func TestParamsSet(t *testing.T) {
	p := Params{}
	if err := p.Set("N=128"); err != nil {
		t.Fatal(err)
	}
	if p["N"] != 128 {
		t.Fatalf("params = %v", p)
	}
	if err := p.Set("bad"); err == nil {
		t.Error("missing value accepted")
	}
	if err := p.Set("N=xyz"); err == nil {
		t.Error("non-integer value accepted")
	}
}

func TestParseArgs(t *testing.T) {
	ints, floats, bufs, err := ParseArgs([]string{"n=16", "a=2.5", "X=@data.f32"})
	if err != nil {
		t.Fatal(err)
	}
	if ints["n"] != 16 {
		t.Errorf("ints = %v", ints)
	}
	if floats["a"] != 2.5 {
		t.Errorf("floats = %v", floats)
	}
	if bufs["X"] != "data.f32" {
		t.Errorf("bufs = %v", bufs)
	}
	if _, _, _, err := ParseArgs([]string{"noequals"}); err == nil {
		t.Error("malformed argument accepted")
	}
}

func TestLoadF32(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.f32")
	want := []float32{1, 2.5, -3}
	raw := make([]byte, 4*len(want))
	for i, f := range want {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(f))
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadF32(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if err := os.WriteFile(path, raw[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadF32(path); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestMakeArgsSizesBuffersAndRejectsUnknown(t *testing.T) {
	p, err := core.Build(context.Background(),
		workloads.GEMMSource(workloads.GEMMNaive),
		core.BuildOptions{Defines: workloads.GEMMDefines(workloads.GEMMNaive)})
	if err != nil {
		t.Fatal(err)
	}
	args, err := MakeArgs(p, map[string]int64{"DIM": 16}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		buf, ok := args.Buffers[name]
		if !ok || len(buf.Words) != 16*16 {
			t.Fatalf("buffer %s sized wrong: %v", name, args.Buffers)
		}
	}

	dir := t.TempDir()
	writeF32 := func(name string, n int) string {
		path := filepath.Join(dir, name)
		raw := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(i+1)))
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	small, big := writeF32("small.f32", 10), writeF32("big.f32", 16*16+1)

	if _, err := MakeArgs(p, map[string]int64{"DIM": 16}, nil,
		map[string]string{"NOPE": small}); err == nil || !strings.Contains(err.Error(), "not a mapped pointer") {
		t.Errorf("unknown @file buffer: err = %v", err)
	}
	// Data longer than the buffer is refused, as nymbled refuses it,
	// never truncated.
	if _, err := MakeArgs(p, map[string]int64{"DIM": 16}, nil,
		map[string]string{"A": big}); err == nil || !strings.Contains(err.Error(), "holds 256 elements, got 257") {
		t.Errorf("oversized @file buffer: err = %v", err)
	}
	// Shorter data fills the head of the buffer; the tail stays zero.
	args, err = MakeArgs(p, map[string]int64{"DIM": 16}, nil, map[string]string{"A": small})
	if err != nil {
		t.Fatal(err)
	}
	words := args.Buffers["A"].Words
	if len(words) != 16*16 || math.Float32frombits(words[9]) != 10 || words[10] != 0 || words[len(words)-1] != 0 {
		t.Errorf("undersized @file buffer: %d words, head %v", len(words), words[:12])
	}
}

// TestUnitsOverlayFlagsOnSeeds: the seed units keep their canonical
// defines and parameters unless the command line names them; file units
// take the command line's as they are.
func TestUnitsOverlayFlagsOnSeeds(t *testing.T) {
	units, err := Units(true, nil, map[string]string{"EXTRA": "1"}, map[string]int64{"DIM": 16})
	if err != nil {
		t.Fatal(err)
	}
	seeds := workloads.Units()
	if len(units) != len(seeds) {
		t.Fatalf("%d units, want %d", len(units), len(seeds))
	}
	for i, u := range units {
		if u.Name != seeds[i].Name || u.Defines["EXTRA"] != "1" || u.Params["DIM"] != 16 {
			t.Errorf("unit %s: defines %v params %v", u.Name, u.Defines, u.Params)
		}
		for k, v := range seeds[i].Defines {
			if u.Defines[k] != v {
				t.Errorf("unit %s lost canonical define %s=%s", u.Name, k, v)
			}
		}
	}
	if pi := units[len(units)-1]; pi.Params["steps"] != 102400 || pi.Floats["step"] == 0 {
		t.Errorf("pi lost its canonical arguments: %v %v", pi.Params, pi.Floats)
	}

	dir := t.TempDir()
	src := workloads.PiSource
	for _, name := range []string{"b.mc", "a.mc"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defines := map[string]string{"X": "2"}
	units, err = Units(false, []string{dir}, defines, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 || units[0].Name != filepath.Join(dir, "a.mc") || units[1].Source != src || units[1].Defines["X"] != "2" {
		t.Errorf("file units = %+v", units)
	}
	if _, err := Units(false, []string{filepath.Join(dir, "missing.mc")}, nil, nil); err == nil {
		t.Error("missing file accepted")
	}
}
