package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"clustersim/internal/coherence"
	"clustersim/internal/fault"
	"clustersim/internal/memory"
	"clustersim/internal/stats"
)

// hashingObserver folds every observer event, with all of its
// arguments, into one sha256 digest.
type hashingObserver struct {
	h [sha256.Size]byte
	n int
}

func (o *hashingObserver) add(format string, args ...any) {
	o.h = sha256.Sum256(fmt.Appendf(o.h[:], format, args...))
	o.n++
}

func (o *hashingObserver) Attach(*memory.AddressSpace, coherence.MemoryModel, []stats.Proc) {
	o.add("attach")
}
func (o *hashingObserver) Place(base memory.Addr, size uint64, pe int) {
	o.add("place %d %d %d", base, size, pe)
}
func (o *hashingObserver) Ref(pe, cluster int, write bool, addr memory.Addr, issue Clock, acc coherence.Access, stall Clock) {
	o.add("ref %d %d %v %d %d %+v %d", pe, cluster, write, addr, issue, acc, stall)
}
func (o *hashingObserver) Compute(pe int, start, cycles Clock) {
	o.add("compute %d %d %d", pe, start, cycles)
}
func (o *hashingObserver) DefineSync(id int, kind stats.SyncKind, name string, participants int) {
	o.add("define %d %d %s %d", id, kind, name, participants)
}
func (o *hashingObserver) Sync(pe, id int, release bool, at Clock) {
	o.add("sync %d %d %v %d", pe, id, release, at)
}
func (o *hashingObserver) SyncWait(pe, id int, arrival, release Clock) {
	o.add("wait %d %d %d %d", pe, id, arrival, release)
}
func (o *hashingObserver) Invalidated(line uint64, writerPE, writerCluster, victim int, now Clock) {
	o.add("inval %d %d %d %d %d", line, writerPE, writerCluster, victim, now)
}
func (o *hashingObserver) Evicted(line uint64, cluster int, now Clock) {
	o.add("evict %d %d %d", line, cluster, now)
}
func (o *hashingObserver) Reset(pe int, at Clock) { o.add("reset %d %d", pe, at) }
func (o *hashingObserver) End(clocks []Clock)     { o.add("end %v", clocks) }

// hashingProbe folds every engine handoff into one sha256 digest.
type hashingProbe struct {
	h [sha256.Size]byte
	n int
}

func (p *hashingProbe) Handoff(from, to int, fromTime, toTime Clock, depth int) {
	p.h = sha256.Sum256(fmt.Appendf(p.h[:], "%d %d %d %d %d", from, to, fromTime, toTime, depth))
	p.n++
}

// runFingerprint is everything observable about one run: its Result
// JSON, its observer event stream and its engine handoff stream.
type runFingerprint struct {
	result           string
	events, handoffs [sha256.Size]byte
	nEvents, nHands  int
}

// randomRaceFreeProgram runs a random program that is race-free by
// construction: every processor draws its addresses and its control
// flow from its own seeded generator, never from shared data. It
// exercises references and computes, lock-protected references, a
// flag, barriers and the measured phase. With racy set, every tenth
// iteration also runs a racy interval (Proc.Racy) that reads and
// advances a host value all processors share, in simulated-time order,
// and draws an address and a branch from it; it nests a second Racy
// around a locked store.
func randomRaceFreeProgram(t *testing.T, cfg Config, seed int64, declare, racy bool) runFingerprint {
	t.Helper()
	obs := &hashingObserver{}
	cfg.Tracer = obs
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := &hashingProbe{}
	m.sched.SetProbe(probe)
	if declare {
		m.DeclareRaceFree()
	}
	a := m.Alloc(1<<15, "data")
	m.Place(a, 4096, cfg.Procs-1)
	bar := m.NewBarrier()
	lk := m.NewLock("l")
	flag := m.NewFlag("f")
	var ctr Addr
	if racy {
		ctr = m.Alloc(64, "counter")
	}
	var shared uint64 // host state read and written only inside Racy
	racyStep := func(p *Proc) {
		p.Read(ctr)
		v := shared
		shared = v*5 + uint64(p.ID()) + 1
		p.Write(ctr)
		off := v % 512 * 64
		if v%3 == 0 {
			p.Write(a + off)
			return
		}
		p.Read(a + off)
		p.Compute(Clock(v % 7))
		p.Racy(func() {
			lk.Acquire(p)
			p.Write(a + v*7%512*64)
			lk.Release(p)
		})
	}
	res, err := m.Run(func(p *Proc) {
		r := rand.New(rand.NewSource(seed + int64(p.ID())*7919))
		for i := 0; i < 40; i++ {
			p.Write(a + uint64(r.Intn(512))*64)
		}
		bar.Wait(p)
		if p.ID() == 0 {
			p.Read(a)
			p.Compute(2)
			m.BeginMeasurement(p)
		}
		bar.Wait(p)
		for i := 0; i < 200; i++ {
			off := uint64(r.Intn(512)) * 64
			switch r.Intn(6) {
			case 0:
				p.Write(a + off)
			case 1, 2:
				p.Compute(Clock(r.Intn(20)))
			case 3:
				lk.Acquire(p)
				p.Read(a + off)
				p.Compute(Clock(r.Intn(5)))
				p.Write(a + off)
				lk.Release(p)
			default:
				p.Read(a + off)
			}
			if racy && i%10 == 5 {
				p.Racy(func() { racyStep(p) })
			}
			if i == 100 {
				if p.ID() == 0 {
					flag.Set(p)
				} else {
					flag.Wait(p)
				}
			}
			if i%40 == 39 {
				bar.Wait(p)
			}
		}
		p.Read(a + uint64(r.Intn(512))*64)
		p.Compute(Clock(r.Intn(20)))
	})
	if err != nil {
		t.Fatalf("declared %v: %v", declare, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return runFingerprint{string(b), obs.h, probe.h, obs.n, probe.n}
}

// TestRaceFreeEquivalenceProperty: on random race-free programs, a
// machine declared race-free (kernels run ahead, the dispatch loop
// performs the buffered references) is indistinguishable from an
// undeclared one — byte-identical Result JSON, the same observer event
// stream and the same engine handoff stream — on both organisations,
// at exact ordering and with a quantum. The same holds for the programs
// with racy intervals, whose addresses and branches depend on a value
// other processors write: Proc.Racy runs them inline. It depends on no
// application's declaration.
func TestRaceFreeEquivalenceProperty(t *testing.T) {
	f := func(seed int64, clusterSeed, cacheSeed uint8) bool {
		clusterSizes := []int{1, 2, 4}
		cacheKBs := []int{0, 1, 4}
		cfg := DefaultConfig()
		cfg.Procs = 8
		cfg.ClusterSize = clusterSizes[int(clusterSeed)%len(clusterSizes)]
		cfg.CacheKBPerProc = cacheKBs[int(cacheSeed)%len(cacheKBs)]
		for _, racy := range []bool{false, true} {
			for _, org := range []Organization{SharedCache, SharedMemory} {
				for _, quantum := range []Clock{0, 7} {
					cfg.Organization, cfg.Quantum = org, quantum
					want := randomRaceFreeProgram(t, cfg, seed, false, racy)
					got := randomRaceFreeProgram(t, cfg, seed, true, racy)
					if got != want {
						t.Logf("seed %d cluster %d cache %d %v quantum %d racy %v: declared run differs\n declared   %d events, %d handoffs, %s\n undeclared %d events, %d handoffs, %s",
							seed, cfg.ClusterSize, cfg.CacheKBPerProc, org, quantum, racy,
							got.nEvents, got.nHands, got.result, want.nEvents, want.nHands, want.result)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRaceFreeNowAndStatsDrain: Now and Stats called mid-kernel see
// every event the processor issued, as on an undeclared machine.
func TestRaceFreeNowAndStatsDrain(t *testing.T) {
	run := func(declare bool) []string {
		m := mustMachine(t, tiny(4, 2))
		if declare {
			m.DeclareRaceFree()
		}
		a := m.Alloc(1<<12, "a")
		seen := make([]string, 4)
		if _, err := m.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Read(a + uint64(p.ID()*10+i)*64)
				p.Compute(3)
			}
			seen[p.ID()] = fmt.Sprintf("%d %+v", p.Now(), p.Stats())
		}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	want, got := run(false), run(true)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("P%d mid-kernel: declared %s, undeclared %s", i, got[i], want[i])
		}
	}
}

// TestRaceFreePanicsSurfaceAsErrors: on a declared machine a failing
// reference is performed by the engine's dispatch loop, not the kernel;
// an unallocated address or a starved fault-injected request still
// becomes the run's annotated error, not a crash.
func TestRaceFreePanicsSurfaceAsErrors(t *testing.T) {
	starving := tiny(2, 1)
	starving.Faults = &fault.Config{Seed: 1, NackPerMille: 1000, MaxRetries: 1}
	for _, c := range []struct {
		name string
		cfg  Config
		bad  func(a Addr) Addr
		want string
	}{
		{"unallocated", tiny(2, 1), func(Addr) Addr { return 0xfff000000 }, "unallocated"},
		{"starved", starving, func(a Addr) Addr { return a + 2048 }, "starved"},
	} {
		m := mustMachine(t, c.cfg)
		m.DeclareRaceFree()
		a := m.Alloc(1<<12, "a")
		_, err := m.Run(func(p *Proc) {
			p.Compute(7)
			if p.ID() == 1 {
				p.Read(c.bad(a))
			}
		})
		if err == nil || !strings.Contains(err.Error(), c.want) ||
			!strings.Contains(err.Error(), "processor 1 panicked at virtual time 7") {
			t.Errorf("%s: want an annotated %q error, got %v", c.name, c.want, err)
		}
	}
}

// TestRaceFreeLayoutFixedDuringRun: a declared machine cannot order an
// allocation or placement against the references still buffered, so
// each fails the run with a message that says why.
func TestRaceFreeLayoutFixedDuringRun(t *testing.T) {
	for _, c := range []struct {
		name string
		call func(m *Machine, p *Proc)
	}{
		{"Alloc", func(m *Machine, p *Proc) { m.Alloc(64, "late") }},
		{"AllocLocal", func(m *Machine, p *Proc) { m.AllocLocal(64, "late", p.ID()) }},
		{"Place", func(m *Machine, p *Proc) { m.Place(0, 64, p.ID()) }},
	} {
		m := mustMachine(t, tiny(2, 1))
		m.DeclareRaceFree()
		a := m.Alloc(1<<12, "a")
		_, err := m.Run(func(p *Proc) {
			p.Read(a)
			c.call(m, p)
		})
		if err == nil || !strings.Contains(err.Error(), c.name+" during Run on a machine declared race-free") {
			t.Errorf("%s during Run: error %v", c.name, err)
		}
	}
}

// sharedCounterProgram runs a declared program under the sanitizer.
// Outside its racy interval every conflicting pair is ordered: each
// processor writes its own slice, then reads its neighbour's after a
// barrier, reads after a flag what processor 0 wrote before setting
// it, and updates one word under a lock. The racy interval bumps a
// counter word that every processor reads and writes with no lock and
// reads a word chosen by the count; marked selects whether it runs
// inside Proc.Racy.
func sharedCounterProgram(t *testing.T, marked bool) (*Machine, Addr, error) {
	t.Helper()
	cfg := tiny(4, 2)
	cfg.Sanitize = true
	m := mustMachine(t, cfg)
	m.DeclareRaceFree()
	data := m.Alloc(1<<13, "data")
	ctr := m.Alloc(64, "counter")
	bar, lk, flag := m.NewBarrier(), m.NewLock("l"), m.NewFlag("f")
	var shared uint64
	bump := func(p *Proc) {
		p.Read(ctr)
		v := shared
		shared = v + uint64(p.ID()) + 1
		p.Write(ctr)
		p.Read(data + v%64*64)
	}
	_, err := m.Run(func(p *Proc) {
		id := uint64(p.ID())
		for j := uint64(0); j < 16; j++ {
			p.Write(data + (id*16+j)*64)
		}
		bar.Wait(p)
		for j := uint64(0); j < 16; j++ {
			p.Read(data + ((id+1)%4*16+j)*64)
		}
		if id == 0 {
			p.Write(data + 4096)
			flag.Set(p)
		} else {
			flag.Wait(p)
		}
		p.Read(data + 4096)
		lk.Acquire(p)
		p.Read(data + 4160)
		p.Write(data + 4160)
		lk.Release(p)
		for i := 0; i < 5; i++ {
			if marked {
				p.Racy(func() { bump(p) })
			} else {
				bump(p)
			}
			p.Compute(Clock(3 + id))
		}
		bar.Wait(p)
	})
	return m, ctr, err
}

// TestRaceCheckAllowsRacyIntervals: under Sanitize, barrier-, flag- and
// lock-ordered write→read pairs between accesses issued ahead are not
// races, and the conflicts inside Racy intervals are allowed and
// counted, not reported.
func TestRaceCheckAllowsRacyIntervals(t *testing.T) {
	m, _, err := sharedCounterProgram(t, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Sanitizer().InlineRaces(); n == 0 {
		t.Error("the race check saw no race inside the Racy intervals; the program does not exercise it")
	}
}

// TestRaceCheckFailsUnmarkedInterval: the same program with its Racy
// call removed races ahead of simulated time, and the sanitizer fails
// the run naming the address, its region and both processors.
func TestRaceCheckFailsUnmarkedInterval(t *testing.T) {
	_, ctr, err := sharedCounterProgram(t, false)
	if err == nil {
		t.Fatal("an unmarked racy interval passed the race check")
	}
	for _, want := range []string{
		fmt.Sprintf("data race on %#x", ctr), `(region "counter")`,
		"(issued ahead) at virtual time", "not ordered by a barrier, lock or flag",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("race error lacks %q:\n%v", want, err)
		}
	}
}
