// Package workloads holds the MiniC sources of the paper's two case
// studies — the five optimization stages of GEMM (§V-C, Figs. 3-5) and the
// infinite series for pi (§V-D, Fig. 10) — plus Go reference
// implementations used to check simulated results. The sources are cleaned
// versions of the paper's listings (which contain minor typos) with
// identical structure: same loop nests, same OpenMP constructs, same
// optimization idea per version.
package workloads

import "fmt"

// GEMMVersion identifies one of the paper's five GEMM implementations.
type GEMMVersion int

// The five versions of §V-C, in the paper's order.
const (
	GEMMNaive          GEMMVersion = iota // Fig. 3: critical section per C element
	GEMMNoCritical                        // work distributed so C updates need no lock
	GEMMPartialVec                        // Fig. 4: vectorized loads of A
	GEMMBlocked                           // BRAM blocking with vectorized block loads
	GEMMDoubleBuffered                    // Fig. 5: prefetch next block during compute
)

// GEMMVersionNames are the paper's names for the versions.
var GEMMVersionNames = [...]string{
	"Naive",
	"No Critical Sections",
	"Partial Vectorization",
	"Blocked",
	"Double Buffering",
}

func (v GEMMVersion) String() string {
	if v < 0 || int(v) >= len(GEMMVersionNames) {
		return fmt.Sprintf("GEMMVersion(%d)", int(v))
	}
	return GEMMVersionNames[v]
}

// AllGEMMVersions lists the versions in order.
var AllGEMMVersions = []GEMMVersion{
	GEMMNaive, GEMMNoCritical, GEMMPartialVec, GEMMBlocked, GEMMDoubleBuffered,
}

// GEMMSource returns the MiniC source of a version.
func GEMMSource(v GEMMVersion) string {
	switch v {
	case GEMMNaive:
		return gemmNaiveSrc
	case GEMMNoCritical:
		return gemmNoCriticalSrc
	case GEMMPartialVec:
		return gemmPartialVecSrc
	case GEMMBlocked:
		return gemmBlockedSrc
	case GEMMDoubleBuffered:
		return gemmDoubleBufferedSrc
	}
	return ""
}

// GEMMDefines returns the -D style definitions each version needs.
// dim must be a multiple of 2*BlockSize (16) for the blocked versions.
func GEMMDefines(v GEMMVersion) map[string]string {
	return GEMMDefinesThreads(v, 8)
}

// GEMMDefinesThreads overrides the hardware thread count (NT), for the
// thread-scaling study (§V-A: "more than eight threads in a single
// accelerator did not increase the performance further").
func GEMMDefinesThreads(v GEMMVersion, threads int) map[string]string {
	d := map[string]string{"VECTOR_LEN": "4", "NT": fmt.Sprint(threads)}
	switch v {
	case GEMMBlocked, GEMMDoubleBuffered:
		d["BS"] = "8"
	}
	return d
}

// gemmNaiveSrc is Fig. 3: every thread computes a partial dot product over
// a strided k range and accumulates it into C under a critical section.
const gemmNaiveSrc = `
#define DTYPE float
#define NT 8

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
    map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NT)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = 0; i < DIM; ++i) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = my_id; k < DIM; k += num_threads) {
          sum += A[i*DIM+k] * B[k*DIM+j];
        }
        #pragma omp critical
        {
          C[i*DIM + j] += sum;
        }
      }
    }
  }
}
`

// gemmNoCriticalSrc distributes output rows across threads so each C
// element is owned by exactly one thread: the critical section disappears.
const gemmNoCriticalSrc = `
#define DTYPE float
#define NT 8

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
    map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NT)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id; i < DIM; i += num_threads) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = 0; k < DIM; ++k) {
          sum += A[i*DIM+k] * B[k*DIM+j];
        }
        C[i*DIM + j] = sum;
      }
    }
  }
}
`

// gemmPartialVecSrc is Fig. 4: loads of A are vectorized (128-bit), B stays
// scalar (it would need a transpose to vectorize).
const gemmPartialVecSrc = `
#define DTYPE float
#define NT 8

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
    map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NT)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id; i < DIM; i += num_threads) {
      for (int j = 0; j < DIM; ++j) {
        DTYPE sum = 0;
        for (int k = 0; k < DIM; k += VECTOR_LEN) {
          VECTOR vA = *((VECTOR*)&A[i*DIM + k]);
          #pragma unroll VECTOR_LEN
          for (int v = 0; v < VECTOR_LEN; ++v) {
            sum += vA[v] * B[(k+v)*DIM + j];
          }
        }
        C[i*DIM + j] = sum;
      }
    }
  }
}
`

// gemmBlockedSrc stages BS x BS sub-matrices of A and B in per-thread BRAM
// (vector loads), computes on the fast local copies, and writes the block
// of C back. Loading and computing are distinct phases (Fig. 8).
const gemmBlockedSrc = `
#define DTYPE float
#define NT 8

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
    map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NT)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id*BS; i < DIM; i += num_threads*BS) {
      for (int j = 0; j < DIM; j += BS) {
        DTYPE C_local[BS][BS];
        for (int x = 0; x < BS; ++x) {
          for (int y = 0; y < BS; ++y) {
            C_local[x][y] = 0.0f;
          }
        }
        for (int k = 0; k < DIM; k += BS) {
          VECTOR A_local[BS][BS/VECTOR_LEN];
          VECTOR B_local[BS][BS/VECTOR_LEN];
          for (int m = 0; m < BS; ++m) {
            for (int v = 0; v < BS; v += VECTOR_LEN) {
              A_local[m][v/VECTOR_LEN] = *((VECTOR*)&A[(i+m)*DIM + k + v]);
              B_local[m][v/VECTOR_LEN] = *((VECTOR*)&B[(k+m)*DIM + j + v]);
            }
          }
          for (int x = 0; x < BS; ++x) {
            for (int y = 0; y < BS; ++y) {
              DTYPE sum = 0;
              #pragma unroll VECTOR_LEN
              for (int v = 0; v < BS; ++v) {
                sum += A_local[x][v/VECTOR_LEN][v%VECTOR_LEN]
                     * B_local[v][y/VECTOR_LEN][y%VECTOR_LEN];
              }
              C_local[x][y] += sum;
            }
          }
        }
        for (int x = 0; x < BS; ++x) {
          for (int y = 0; y < BS; ++y) {
            C[(i+x)*DIM + j + y] = C_local[x][y];
          }
        }
      }
    }
  }
}
`

// gemmDoubleBufferedSrc is the Fig. 5 idea with explicit ping-pong buffers:
// while one block pair is being computed on, the next is prefetched into
// the other buffer. The load loop and the compute loop of each phase touch
// disjoint BRAMs, so they overlap (Fig. 9). DIM must be a multiple of 2*BS.
const gemmDoubleBufferedSrc = `
#define DTYPE float
#define NT 8

void matmul(DTYPE* A, DTYPE* B, DTYPE* C, int DIM) {
  #pragma omp target parallel map(from:C[0:DIM*DIM]) \
    map(to:A[0:DIM*DIM], B[0:DIM*DIM]) num_threads(NT)
  {
    int my_id = omp_get_thread_num();
    int num_threads = omp_get_num_threads();
    for (int i = my_id*BS; i < DIM; i += num_threads*BS) {
      for (int j = 0; j < DIM; j += BS) {
        DTYPE C_local[BS][BS];
        for (int x = 0; x < BS; ++x) {
          for (int y = 0; y < BS; ++y) {
            C_local[x][y] = 0.0f;
          }
        }
        VECTOR A0[BS][BS/VECTOR_LEN];
        VECTOR B0[BS][BS/VECTOR_LEN];
        VECTOR A1[BS][BS/VECTOR_LEN];
        VECTOR B1[BS][BS/VECTOR_LEN];
        for (int m = 0; m < BS; ++m) {
          for (int v = 0; v < BS; v += VECTOR_LEN) {
            A0[m][v/VECTOR_LEN] = *((VECTOR*)&A[(i+m)*DIM + v]);
            B0[m][v/VECTOR_LEN] = *((VECTOR*)&B[m*DIM + j + v]);
          }
        }
        for (int k = 0; k < DIM; k += 2*BS) {
          if (k + BS < DIM) {
            for (int m = 0; m < BS; ++m) {
              for (int v = 0; v < BS; v += VECTOR_LEN) {
                A1[m][v/VECTOR_LEN] = *((VECTOR*)&A[(i+m)*DIM + k + BS + v]);
                B1[m][v/VECTOR_LEN] = *((VECTOR*)&B[(k+BS+m)*DIM + j + v]);
              }
            }
          }
          for (int x = 0; x < BS; ++x) {
            for (int y = 0; y < BS; ++y) {
              DTYPE sum = 0;
              #pragma unroll VECTOR_LEN
              for (int v = 0; v < BS; ++v) {
                sum += A0[x][v/VECTOR_LEN][v%VECTOR_LEN]
                     * B0[v][y/VECTOR_LEN][y%VECTOR_LEN];
              }
              C_local[x][y] += sum;
            }
          }
          if (k + 2*BS < DIM) {
            for (int m = 0; m < BS; ++m) {
              for (int v = 0; v < BS; v += VECTOR_LEN) {
                A0[m][v/VECTOR_LEN] = *((VECTOR*)&A[(i+m)*DIM + k + 2*BS + v]);
                B0[m][v/VECTOR_LEN] = *((VECTOR*)&B[(k+2*BS+m)*DIM + j + v]);
              }
            }
          }
          if (k + BS < DIM) {
            for (int x = 0; x < BS; ++x) {
              for (int y = 0; y < BS; ++y) {
                DTYPE sum = 0;
                #pragma unroll VECTOR_LEN
                for (int v = 0; v < BS; ++v) {
                  sum += A1[x][v/VECTOR_LEN][v%VECTOR_LEN]
                       * B1[v][y/VECTOR_LEN][y%VECTOR_LEN];
                }
                C_local[x][y] += sum;
              }
            }
          }
        }
        for (int x = 0; x < BS; ++x) {
          for (int y = 0; y < BS; ++y) {
            C[(i+x)*DIM + j + y] = C_local[x][y];
          }
        }
      }
    }
  }
}
`

// PiSource is Fig. 10: the infinite series for pi, block-unrolled and
// reduced across threads with a critical section.
const PiSource = `
#define DTYPE float
#define BS_compute 8
#define NT 8

DTYPE pi(int steps, int threads) {
  DTYPE final_sum = 0.0;
  DTYPE step = 1.0/(DTYPE)steps;
  #pragma omp target parallel map(to:step) \
    map(tofrom:final_sum) num_threads(NT)
  {
    int step_per_thread = steps/omp_get_num_threads();
    int start_i = omp_get_thread_num()*step_per_thread;
    VECTOR sum = {0.0f};
    DTYPE local_step = step;
    for (int i = 0; i < step_per_thread; i += BS_compute) {
      #pragma unroll BS_compute
      for (int j = 0; j < BS_compute; j++) {
        DTYPE x = ((DTYPE)(i+start_i+j)+0.5f)*local_step;
        sum[j%VECTOR_LEN] += 4.0f / (1.0f+x*x);
      }
    }
    #pragma omp critical
    {
      for (int l = 0; l < VECTOR_LEN; l++) {
        final_sum += sum[l];
      }
    }
  }
  return final_sum;
}
`

// PiDefines returns the definitions the pi kernel needs.
func PiDefines() map[string]string {
	return map[string]string{"VECTOR_LEN": "4", "NT": "8"}
}

// GEMMRef computes the float32 reference product C = A*B.
func GEMMRef(a, b []float32, dim int) []float32 {
	c := make([]float32, dim*dim)
	for i := 0; i < dim; i++ {
		for k := 0; k < dim; k++ {
			av := a[i*dim+k]
			if av == 0 {
				continue
			}
			row := b[k*dim:]
			out := c[i*dim:]
			for j := 0; j < dim; j++ {
				out[j] += av * row[j]
			}
		}
	}
	return c
}

// PiRefSum evaluates the pi series on the host in float32, mirroring the
// kernel's per-thread blocking so rounding behaviour matches closely. It
// is the unscaled reduction the accelerator computes into final_sum (as
// the paper's Fig. 10 does); the pi estimate is the sum times 1/steps.
func PiRefSum(steps, threads int) float32 {
	step := float32(1.0) / float32(steps)
	var total float32
	per := steps / threads
	for t := 0; t < threads; t++ {
		start := t * per
		var lanes [4]float32
		for i := 0; i < per; i++ {
			x := (float32(start+i) + 0.5) * step
			lanes[i%4] += 4.0 / (1.0 + x*x)
		}
		total += lanes[0] + lanes[1] + lanes[2] + lanes[3]
	}
	return total
}

// GEMMInputs builds deterministic test matrices.
func GEMMInputs(dim int) (a, b []float32) {
	a = make([]float32, dim*dim)
	b = make([]float32, dim*dim)
	for i := range a {
		a[i] = float32((i*7)%13)/8 - 0.5
		b[i] = float32((i*5)%11)/8 - 0.6
	}
	return a, b
}
