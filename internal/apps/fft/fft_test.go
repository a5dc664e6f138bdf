package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"clustersim/internal/apps"
	"clustersim/internal/core"
)

func testCfg(procs, clusterSize int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Procs = procs
	cfg.ClusterSize = clusterSize
	return cfg
}

func TestTransformCorrect(t *testing.T) {
	res, err := Run(testCfg(4, 1), Params{M: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Aggregate().References() == 0 {
		t.Fatal("no references")
	}
}

func TestCorrectAcrossClusterSizes(t *testing.T) {
	for _, cs := range []int{1, 2, 4} {
		if _, err := Run(testCfg(4, cs), Params{M: 8}); err != nil {
			t.Errorf("cluster %d: %v", cs, err)
		}
	}
}

func TestRejectsOddM(t *testing.T) {
	if _, err := Run(testCfg(4, 1), Params{M: 7}); err == nil {
		t.Fatal("want error for odd M")
	}
	if _, err := Run(testCfg(4, 1), Params{M: 2}); err == nil {
		t.Fatal("want error for tiny M")
	}
}

func TestRejectsTooManyProcs(t *testing.T) {
	if _, err := Run(testCfg(64, 1), Params{M: 4}); err == nil {
		t.Fatal("want error when procs exceed matrix rows")
	}
}

func TestDeterministic(t *testing.T) {
	r1, err := Run(testCfg(4, 2), Params{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(testCfg(4, 2), Params{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecTime != r2.ExecTime {
		t.Fatalf("nondeterministic: %d vs %d", r1.ExecTime, r2.ExecTime)
	}
}

func TestWorkloadMetadata(t *testing.T) {
	w := Workload()
	if w.Name != "fft" || w.Run == nil {
		t.Fatalf("workload = %+v", w)
	}
	if _, err := w.Run(testCfg(4, 1), apps.SizeTest); err != nil {
		t.Fatal(err)
	}
}

// TestAllToAllLimitsClustering checks the paper's FFT finding: the
// all-to-all transpose limits clustering's communication reduction to
// the factor (P-C)/(P-1). At 8 processors with 4-way clusters that
// factor is large (4/7), so we only check the benefit never exceeds it
// by much and clustering never hurts badly.
func TestAllToAllLimitsClustering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base, err := Run(testCfg(8, 1), Params{M: 10})
	if err != nil {
		t.Fatal(err)
	}
	clus, err := Run(testCfg(8, 4), Params{M: 10})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(clus.ExecTime) / float64(base.ExecTime)
	if ratio < 0.45 || ratio > 1.15 {
		t.Errorf("clustering ratio %.3f outside the plausible band", ratio)
	}
	// The all-to-all pattern: remaining load stall must not drop below
	// roughly the (P-C)/(P-1) share of the base communication.
	limit := float64(8-4) / float64(8-1)
	bs := float64(base.Aggregate().LoadStall)
	cs := float64(clus.Aggregate().LoadStall)
	if bs > 0 && cs < 0.5*limit*bs {
		t.Errorf("load stall ratio %.3f far below the all-to-all limit %.3f", cs/bs, limit)
	}
}

// TestRowFFTMatchesDFT drives the in-place row FFT on one row and
// compares against a direct DFT.
func TestRowFFTMatchesDFT(t *testing.T) {
	const r = 16
	cfg := testCfg(1, 1)
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr := apps.NewArray[complex128](m, r, "row")
	roots := apps.NewArray[complex128](m, r, "roots")
	input := make([]complex128, r)
	_, err = m.Run(func(p *core.Proc) {
		rng := rand.New(rand.NewSource(5))
		for k := 0; k < r; k++ {
			ang := -2 * math.Pi * float64(k) / float64(r)
			roots.Set(p, k, cmplx.Exp(complex(0, ang)))
		}
		for i := 0; i < r; i++ {
			v := complex(rng.Float64()-0.5, rng.Float64()-0.5)
			arr.Set(p, i, v)
			input[i] = v
		}
		rowFFT(p, arr, roots, 0, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < r; k++ {
		var want complex128
		for j := 0; j < r; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(r)
			want += input[j] * cmplx.Exp(complex(0, ang))
		}
		if cmplx.Abs(arr.Data[k]-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", k, arr.Data[k], want)
		}
	}
}

// TestTransposeExact drives the blocked transpose and checks it.
func TestTransposeExact(t *testing.T) {
	const r = 16
	cfg := testCfg(2, 1)
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := apps.NewArray[complex128](m, r*r, "src")
	dst := apps.NewArray[complex128](m, r*r, "dst")
	bar := m.NewBarrier()
	_, err = m.Run(func(p *core.Proc) {
		lo, hi := apps.Chunk(r, p.ID(), 2)
		if p.ID() == 0 {
			for i := 0; i < r*r; i++ {
				src.Set(p, i, complex(float64(i), 0))
			}
		}
		bar.Wait(p)
		transpose(p, dst, src, r, lo, hi)
		bar.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			if dst.Data[i*r+j] != src.Data[j*r+i] {
				t.Fatalf("dst[%d][%d] != src[%d][%d]", i, j, j, i)
			}
		}
	}
}
