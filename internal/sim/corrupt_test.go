package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/vbcloud/vb/internal/cluster"
	"github.com/vbcloud/vb/internal/core"
	"github.com/vbcloud/vb/internal/workload"
)

// corruptFixture builds a small mid-run engine snapshot to damage.
func corruptFixture(t *testing.T) (core.Config, Input, cluster.Config, []byte) {
	t.Helper()
	in, apps := vmLevelFixtures(t, 2)
	cfg := simConfig(core.MIP)
	ccfg := cluster.DefaultConfig()
	eng, err := NewVMEngine(cfg, in, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := vmBatchArrivals(in, apps)
	sortArrivals(arrivals)
	next := 0
	for i := 0; i < 3 && !eng.Done(); i++ {
		now := eng.Now()
		var batch []AppArrival
		for next < len(arrivals) && !arrivals[next].Demand.Start.After(now) {
			batch = append(batch, arrivals[next])
			next++
		}
		if _, err := eng.Advance(batch); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	return cfg, in, ccfg, snap.Bytes()
}

// TestRestoreRejectsForeignSiteConfig re-encodes a good snapshot with one
// site's config changed. The engine's own config is pinned by the
// fingerprint, so a site that disagrees with it must be refused, naming
// the site, before its state is rebuilt: an absurd core count would
// otherwise size the site's free-core index from the snapshot.
func TestRestoreRejectsForeignSiteConfig(t *testing.T) {
	cfg, in, ccfg, data := corruptFixture(t)
	cases := []struct {
		name   string
		mutate func(st *cluster.SiteState)
	}{
		{"other target", func(st *cluster.SiteState) { st.Config.TargetUtilization = 0.5 }},
		{"absurd cores", func(st *cluster.SiteState) {
			st.Config.Servers, st.Config.CoresPerServer = 1, 1<<31
			st.Servers, st.EvictCursor = st.Servers[:1], 0
		}},
	}
	for _, c := range cases {
		var st vmEngineState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		c.mutate(&st.Sites[1])
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatal(err)
		}
		_, err := RestoreVMEngine(cfg, in, ccfg, &buf)
		if err == nil || !strings.Contains(err.Error(), "site 1") {
			t.Errorf("%s: restore returned %v, want an error naming site 1", c.name, err)
		}
	}
}

// TestRestoreRejectsUnplannableApps re-encodes a good snapshot with one
// app's state damaged where only a later replan would notice: a plan entry
// that is NaN, infinite or negative, or a demand that Place refuses. A
// replan uncommits the plan into the ledgers and places the demand again,
// so the first would poison the ledgers the next snapshot carries and the
// second would fail Advance mid-run; both must be refused at restore,
// naming the app (and for a plan the site and step).
func TestRestoreRejectsUnplannableApps(t *testing.T) {
	cfg, in, ccfg, data := corruptFixture(t)
	cases := []struct {
		name   string
		mutate func(st *vmEngineState, a *vmAppWire)
		want   func(st *vmEngineState, a *vmAppWire) string
	}{
		{"NaN plan from the snapshot step on", func(st *vmEngineState, a *vmAppWire) {
			for step := st.Step; step < len(a.Plan.Alloc[0]); step++ {
				a.Plan.Alloc[0][step] = math.NaN()
			}
		}, func(st *vmEngineState, a *vmAppWire) string {
			return fmt.Sprintf("app %d plan holds NaN at site 0 step %d", a.Demand.ID, st.Step)
		}},
		{"infinite plan entry", func(st *vmEngineState, a *vmAppWire) {
			a.Plan.Alloc[2][st.Step+1] = math.Inf(1)
		}, func(st *vmEngineState, a *vmAppWire) string {
			return fmt.Sprintf("app %d plan holds +Inf at site 2 step %d", a.Demand.ID, st.Step+1)
		}},
		{"negative plan entry", func(st *vmEngineState, a *vmAppWire) {
			a.Plan.Alloc[1][0] = -3
		}, func(st *vmEngineState, a *vmAppWire) string {
			return fmt.Sprintf("app %d plan holds -3 at site 1 step 0", a.Demand.ID)
		}},
		{"NaN stable cores", func(st *vmEngineState, a *vmAppWire) {
			a.Demand.StableCores = math.NaN()
		}, func(st *vmEngineState, a *vmAppWire) string {
			return fmt.Sprintf("app %d has non-finite stable cores", a.Demand.ID)
		}},
		{"stable cores above cores", func(st *vmEngineState, a *vmAppWire) {
			a.Demand.StableCores = 2 * a.Demand.Cores
		}, func(st *vmEngineState, a *vmAppWire) string {
			return fmt.Sprintf("app %d stable cores", a.Demand.ID)
		}},
	}
	for _, c := range cases {
		var st vmEngineState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if len(st.Apps) < 2 || st.Apps[1].Plan.Alloc == nil || len(st.Apps[1].Plan.Alloc) != 3 {
			t.Fatalf("fixture snapshot's app 1 has no 3-site plan (%d apps)", len(st.Apps))
		}
		a := &st.Apps[1]
		c.mutate(&st, a)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatal(err)
		}
		_, err := RestoreVMEngine(cfg, in, ccfg, &buf)
		if want := c.want(&st, a); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: restore returned %v, want an error containing %q", c.name, err, want)
		}
	}
}

// TestRestoreRejectsUnenqueueableApps re-encodes a good snapshot with app
// 1 damaged in a way Enqueue refuses from a live caller: its first VM of
// an unknown class, of no cores, or owned by app 0, or the app repeated
// (without its VMs, so that no VM ID repeats). Each must be refused at
// restore, naming the app, before any state is built.
func TestRestoreRejectsUnenqueueableApps(t *testing.T) {
	cfg, in, ccfg, data := corruptFixture(t)
	cases := []struct {
		name   string
		mutate func(st *vmEngineState)
		want   func(st *vmEngineState) string
	}{
		{"unknown class", func(st *vmEngineState) { st.Apps[1].VMs[0].Class = 99 },
			func(st *vmEngineState) string {
				return fmt.Sprintf("app %d VM 0 (ID %d): unknown class", st.Apps[1].Demand.ID, st.Apps[1].VMs[0].ID)
			}},
		{"no cores", func(st *vmEngineState) { st.Apps[1].VMs[0].Cores = 0 },
			func(st *vmEngineState) string {
				return fmt.Sprintf("app %d VM 0 (ID %d): non-positive size", st.Apps[1].Demand.ID, st.Apps[1].VMs[0].ID)
			}},
		{"VM of another app", func(st *vmEngineState) { st.Apps[1].VMs[0].AppID = st.Apps[0].Demand.ID },
			func(st *vmEngineState) string {
				return fmt.Sprintf("app %d VM 0 (ID %d) belongs to app %d", st.Apps[1].Demand.ID, st.Apps[1].VMs[0].ID, st.Apps[0].Demand.ID)
			}},
		{"repeated app", func(st *vmEngineState) {
			again := st.Apps[1]
			again.VMs = nil
			st.Apps = append(st.Apps, again)
		},
			func(st *vmEngineState) string { return fmt.Sprintf("repeats app %d", st.Apps[1].Demand.ID) }},
	}
	for _, c := range cases {
		var st vmEngineState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if len(st.Apps) < 2 || len(st.Apps[1].VMs) == 0 {
			t.Fatalf("fixture snapshot's app 1 has no VMs (%d apps)", len(st.Apps))
		}
		c.mutate(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatal(err)
		}
		_, err := RestoreVMEngine(cfg, in, ccfg, &buf)
		if want := c.want(&st); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: restore returned %v, want an error containing %q", c.name, err, want)
		}
	}
}

// TestRestoreRejectsDisagreeingVMLocations re-encodes a good snapshot with
// its VM location table at odds with the sites: a VM that site s runs
// marked displaced, so that a later step launches it at a second site; its
// entry moved to another site; an entry for a VM that no app holds, which
// would count as running forever; and a VM located at a site that no
// longer runs it. Each must be refused, naming the VM and the site.
func TestRestoreRejectsDisagreeingVMLocations(t *testing.T) {
	cfg, in, ccfg, data := corruptFixture(t)
	// running finds, in a decoded snapshot, the first VM of a server's
	// list, that list and the site s that runs it.
	running := func(st *vmEngineState) (id int, list *[]workload.VM, s int) {
		for s, site := range st.Sites {
			for k, vms := range site.Servers {
				if len(vms) > 0 {
					return vms[0].ID, &site.Servers[k], s
				}
			}
		}
		t.Fatal("fixture snapshot runs no VM")
		return 0, nil, 0
	}
	cases := []struct {
		name   string
		mutate func(st *vmEngineState) string // returns the wanted error text
	}{
		{"running VM marked displaced", func(st *vmEngineState) string {
			id, _, s := running(st)
			st.VMSite[id] = -1
			return fmt.Sprintf("site %d runs VM %d", s, id)
		}},
		{"running VM located at another site", func(st *vmEngineState) string {
			id, _, s := running(st)
			st.VMSite[id] = (s + 1) % len(st.Sites)
			return fmt.Sprintf("site %d runs VM %d", s, id)
		}},
		{"VM of no app", func(st *vmEngineState) string {
			st.VMSite[1<<40] = -1
			return fmt.Sprintf("locates VM %d at site -1, but no snapshot app holds it", 1<<40)
		}},
		{"located VM its site does not run", func(st *vmEngineState) string {
			id, list, s := running(st)
			*list = (*list)[1:]
			return fmt.Sprintf("locates VM %d at site %d, which does not run it", id, s)
		}},
	}
	for _, c := range cases {
		var st vmEngineState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		want := c.mutate(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
			t.Fatal(err)
		}
		_, err := RestoreVMEngine(cfg, in, ccfg, &buf)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: restore returned %v, want an error containing %q", c.name, err, want)
		}
	}
}

// TestRestoreTruncatedSnapshot sweeps truncation points across the whole
// snapshot: every strict prefix must restore to a positioned error (the
// byte offset where decoding died), never a panic and never silent success.
func TestRestoreTruncatedSnapshot(t *testing.T) {
	cfg, in, ccfg, data := corruptFixture(t)
	if _, err := RestoreVMEngine(cfg, in, ccfg, bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine snapshot failed to restore: %v", err)
	}
	stride := len(data)/64 + 1
	for n := 0; n < len(data); n += stride {
		_, err := RestoreVMEngine(cfg, in, ccfg, bytes.NewReader(data[:n]))
		if err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) restored without error", n, len(data))
		}
		if !strings.Contains(err.Error(), "byte") {
			t.Fatalf("truncation at %d bytes: error %q carries no byte position", n, err)
		}
	}
}

// TestRestoreBitFlippedSnapshot flips one bit at strided positions across
// the snapshot. Any outcome except a panic is acceptable: most flips must
// error (gob framing, fingerprint, or range validation), and a flip that
// happens to decode must still yield an engine that can step without
// crashing.
func TestRestoreBitFlippedSnapshot(t *testing.T) {
	cfg, in, ccfg, data := corruptFixture(t)
	stride := len(data)/96 + 1
	survived, flips := 0, 0
	for pos := 0; pos < len(data); pos += stride {
		for _, mask := range []byte{0x01, 0x80} {
			flips++
			mut := append([]byte(nil), data...)
			mut[pos] ^= mask
			eng, err := RestoreVMEngine(cfg, in, ccfg, bytes.NewReader(mut))
			if err != nil {
				continue
			}
			survived++
			if !eng.Done() {
				if _, err := eng.Advance(nil); err != nil {
					continue // a decodable-but-bogus state may error on step; fine
				}
			}
		}
	}
	// Sanity: the sweep must actually have exercised the error paths (a
	// snapshot where every flip decodes would mean gob framing is not being
	// checked at all). The bound is proportional and loose on purpose: the
	// payload is dominated by float64 plan/transfer values whose bit flips
	// decode fine (just to different numbers), and gob's randomized map
	// iteration order shifts the byte layout between runs, so the survivor
	// count jitters. Roughly half the flips survive in practice; more than
	// three quarters would mean the framing/descriptor checks went inert.
	if survived > flips*3/4 {
		t.Fatalf("%d of %d bit flips restored successfully; corruption detection looks inert", survived, flips)
	}
}
