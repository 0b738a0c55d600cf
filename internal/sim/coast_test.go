package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paravis/internal/hw"
	"paravis/internal/paraver"
)

// steppingCopy returns a copy of ck whose CoastTo[s] is s for every stage,
// so the engine steps every stage of every token: the per-cycle stepping
// that coasting must reproduce. The original kernel is not touched.
func steppingCopy(ck *hw.CKernel) *hw.CKernel {
	c := *ck
	c.Graphs = make([]*hw.CGraph, len(ck.Graphs))
	for i, cg := range ck.Graphs {
		g := *cg
		g.CoastTo = make([]int32, len(cg.CoastTo))
		for s := range g.CoastTo {
			g.CoastTo[s] = int32(s)
		}
		c.Graphs[i] = &g
	}
	return &c
}

// coastCase is one kernel launch the oracle replays with and without
// coasting: args builds fresh arguments per run (runs write buffers back).
type coastCase struct {
	name string
	ck   *hw.CKernel
	args func() Args
	cfg  Config
}

// coastOutcome is everything a run produces apart from the scheduler's
// step counters: the Result with Steps and ThreadVisits zeroed and the
// profiling unit replaced by the sha256 of its rendered .prv and .pcf,
// plus the written-back buffers.
type coastOutcome struct {
	err      string
	res      Result
	prv, pcf [32]byte
	bufs     map[string][]uint32
}

func runCoastCase(t *testing.T, c coastCase, ck *hw.CKernel) (coastOutcome, int64) {
	t.Helper()
	args := c.args()
	r, err := Run(context.Background(), ck, args, c.cfg)
	if err != nil {
		return coastOutcome{err: err.Error()}, 0
	}
	o := coastOutcome{res: *r, bufs: map[string][]uint32{}}
	steps := r.Steps
	o.res.Steps, o.res.ThreadVisits = 0, 0
	if r.Prof != nil {
		st := paraver.StreamOf(r.Prof, ck.K.Name, r.Cycles)
		var prv, pcf bytes.Buffer
		if err := st.WritePRV(&prv); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := st.WritePCF(&pcf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		o.prv, o.pcf = sha256.Sum256(prv.Bytes()), sha256.Sum256(pcf.Bytes())
		o.res.Prof = nil
	}
	for name, b := range args.Buffers {
		o.bufs[name] = b.Words
	}
	return o, steps
}

// outcomeDiff names what differs between two outcomes: the error, the
// trace digests, the buffers and each Result field, with its two values.
func outcomeDiff(got, want coastOutcome) string {
	var diffs []string
	add := func(name string, g, w any) {
		if !reflect.DeepEqual(g, w) {
			diffs = append(diffs, fmt.Sprintf("%s (%v, stepping %v)", name, g, w))
		}
	}
	add("error", got.err, want.err)
	add(".prv sha256", fmt.Sprintf("%x", got.prv[:8]), fmt.Sprintf("%x", want.prv[:8]))
	add(".pcf sha256", fmt.Sprintf("%x", got.pcf[:8]), fmt.Sprintf("%x", want.pcf[:8]))
	for name := range want.bufs {
		if !reflect.DeepEqual(got.bufs[name], want.bufs[name]) {
			diffs = append(diffs, "buffer "+name)
		}
	}
	gv, wv := reflect.ValueOf(got.res), reflect.ValueOf(want.res)
	for i := 0; i < gv.NumField(); i++ {
		add(gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
	}
	return strings.Join(diffs, "; ")
}

// genericArgs launches any kernel: every int parameter is 16, every float
// 1.5, and every pointer a 4096-word buffer with a fixed float pattern.
func genericArgs(ck *hw.CKernel) func() Args {
	return func() Args {
		args := Args{Ints: map[string]int64{}, Floats: map[string]float64{}, Buffers: map[string]*Buffer{}}
		for _, p := range ck.K.Params {
			switch {
			case p.Pointer:
				fs := make([]float32, 4096)
				for i := range fs {
					fs[i] = float32((i*5+len(p.Name))%13) - 6
				}
				args.Buffers[p.Name] = NewFloatBuffer(fs)
			case p.Float:
				args.Floats[p.Name] = 1.5
			default:
				args.Ints[p.Name] = 16
			}
		}
		return args
	}
}

// coastCases gathers the oracle's inputs: the six seeds at DIM=16 and 32,
// and at DIM=24 under a short sample period, every example kernel, the
// schedule-golden cases and the differential-fuzz kernels, the last two
// under short sample periods.
func coastCases(t *testing.T) []coastCase {
	var cs []coastCase
	short64 := DefaultConfig()
	short64.Profile.SamplePeriod = 64
	for _, sz := range []struct {
		dim, pi int
		cfg     Config
	}{{16, 6400, DefaultConfig()}, {32, 25600, DefaultConfig()}, {24, 9600, short64}} {
		for _, u := range seedUnits(t, sz.dim, sz.pi) {
			cs = append(cs, coastCase{fmt.Sprintf("%s@%d", u.name, sz.dim), u.ck, u.args, sz.cfg})
		}
	}
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".mc") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ck := compileSrc(t, string(src), nil)
		cs = append(cs, coastCase{path, ck, genericArgs(ck), fastConfig()})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range scheduleCases {
		cs = append(cs, coastCase{c.name, compileSrc(t, c.src, nil), c.args, c.config()})
	}
	short := fastConfig()
	short.Profile.SamplePeriod = 24
	near := short
	near.ThreadStart = 6
	for _, k := range []struct{ name, src string }{{"wake", coastWakeSrc}, {"barrier", coastBarrierSrc}} {
		ck := compileSrc(t, k.src, nil)
		cs = append(cs, coastCase{k.name, ck, genericArgs(ck), near})
	}
	for seed := uint64(1); seed <= 6; seed++ {
		g := &exprGen{state: seed}
		fsrc, _ := g.gen(2 + g.next(2))
		isrc, _ := g.genInt(2 + g.next(2))
		for i, body := range []string{
			"void fz(float* A, float* B, int n)" + fmt.Sprintf(fuzzBody, fsrc),
			"void fz(int* A, int* B, int n)" + fmt.Sprintf(fuzzBody, isrc),
		} {
			ck := compileSrc(t, body, nil)
			cs = append(cs, coastCase{fmt.Sprintf("fuzz%d.%d", seed, i), ck, genericArgs(ck), short})
		}
	}
	for i, src := range engineRunSeeds {
		if ck, err := tryCompile(src); err == nil {
			cs = append(cs, coastCase{fmt.Sprintf("engine-run-seed%d", i), ck, genericArgs(ck), short})
		}
	}
	return cs
}

// coastWakeSrc issues a DRAM load at the top of a long pure chain that
// does not need it: the load completes, and wakes its frame, while the
// frame coasts through the chain.
const coastWakeSrc = `
void cw(float* A, float* B, int n) {
  #pragma omp target parallel map(to:A[0:n]) map(from:B[0:n]) num_threads(1)
  {
    for (int i = 0; i < n; i++) {
      float a = A[i];
      float x = (float)i;
      x = x * 1.5f + 2.0f;
      x = x / 3.0f - 1.0f;
      x = x * x + 0.5f;
      x = x / 7.0f + 3.0f;
      x = x * 0.25f - x / 9.0f;
      x = x * x / 5.0f + 1.0f;
      B[i] = a + x;
    }
  }
}
`

// coastBarrierSrc arrives at a barrier whose first dependent effect waits
// for a long pure chain, with thread starts close enough that the last
// arrival releases the others while they would still be in the chain.
const coastBarrierSrc = `
void cb(float* A, int n) {
  #pragma omp target parallel map(tofrom:A[0:n]) num_threads(4)
  {
    int id = omp_get_thread_num();
    #pragma omp barrier
    float x = (float)id;
    x = x * 1.5f + 2.0f;
    x = x / 3.0f - 1.0f;
    x = x * x + 0.5f;
    x = x / 7.0f + 3.0f;
    A[id] = x;
  }
}
`

// fuzzBody is the kernel body of the differential-fuzz tests, with the
// generated expression as its one verb.
const fuzzBody = ` {
  #pragma omp target parallel map(to:A[0:n]) map(from:B[0:n]) num_threads(2)
  {
    int id = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = id; i < n; i += nt) {
      B[i] = %s;
    }
  }
}
`

// TestCoastMatchesStepping is the oracle of coasting: every input runs on
// the engine as compiled and on steppingCopy, and the two must agree on the
// whole Result except the three step counters, on the bytes of the .prv and
// .pcf, and on every written-back buffer. Coasting must also never add a
// step, and must remove some on every seed unit.
func TestCoastMatchesStepping(t *testing.T) {
	saved := int64(0)
	for _, c := range coastCases(t) {
		got, coastSteps := runCoastCase(t, c, c.ck)
		want, steps := runCoastCase(t, c, steppingCopy(c.ck))
		if d := outcomeDiff(got, want); d != "" {
			t.Errorf("%s: coasting changed %s", c.name, d)
			continue
		}
		if got.err != "" {
			continue
		}
		if coastSteps > steps {
			t.Errorf("%s: %d steps with coasting, %d without", c.name, coastSteps, steps)
		}
		if strings.Contains(c.name, "@") && coastSteps == steps {
			t.Errorf("%s: coasting saved no step", c.name)
		}
		saved += steps - coastSteps
		t.Logf("%s: %d steps stepping, %d coasting", c.name, steps, coastSteps)
	}
	t.Logf("coasting saved %d steps", saved)
}
