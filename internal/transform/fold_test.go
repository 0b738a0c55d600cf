package transform_test

import (
	"errors"
	"testing"

	"paravis/internal/minic"
	"paravis/internal/transform"
)

// dotShadowedSrc declares a local n that shadows the parameter the
// launch binds: the loop runs 6 times whatever n the host passes.
const dotShadowedSrc = `
float dot(float* X, float* Y, int n, float result) {
  #pragma omp target parallel map(to:X[0:16], Y[0:16]) map(tofrom:result) num_threads(1)
  {
    float acc = 0.0f;
    {
      int n = 6;
      for (int k = 0; k < n; k++) {
        acc += X[k] * Y[k];
      }
    }
    result += acc;
  }
  return result;
}
`

// dotAssignedSrc overwrites the mapped parameter before the loop: its
// launch value no longer bounds the loop.
const dotAssignedSrc = `
float dot(float* X, float* Y, int n, float result) {
  #pragma omp target parallel map(to:X[0:16], Y[0:16]) map(tofrom:result, n) num_threads(1)
  {
    float acc = 0.0f;
    n = 6;
    for (int k = 0; k < n; k++) {
      acc += X[k] * Y[k];
    }
    result += acc;
  }
  return result;
}
`

// TestFoldConstReadsOnlyUnassignedParams checks that a launch parameter
// folds only where the identifier is that parameter and the function
// never writes it. Folding n = 16 into either loop above would widen it
// to 16 iterations; the vectorize pass must refuse instead.
func TestFoldConstReadsOnlyUnassignedParams(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"shadowed", dotShadowedSrc},
		{"assigned", dotAssignedSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := minic.Parse(tc.src, minic.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var loop string
			minic.Inspect(prog.Funcs[0].Body, func(n minic.Node) bool {
				if st, ok := n.(*minic.ForStmt); ok && loop == "" {
					loop = minic.LoopName(st)
				}
				return true
			})
			opts := transform.Options{Params: map[string]int64{"n": 16}, VectorLanes: 4}
			out, err := transform.Apply(tc.src, transform.Step{Pass: transform.PassVectorize, Loop: loop}, opts)
			if !errors.Is(err, transform.ErrNotApplicable) {
				t.Fatalf("vectorize on %s: err = %v, want ErrNotApplicable; output:\n%s", loop, err, out)
			}
		})
	}
}
