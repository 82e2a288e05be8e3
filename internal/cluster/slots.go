package cluster

import (
	"slices"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// The slot table holds every VM the site holds, running or queued. A VM
// takes a slot when the site first holds it (a step arrival, a successful
// Admit, NewFromState) and keeps it through every eviction, wait in the
// queue and relaunch, until it departs, expires, or leaves by Remove or
// SetPowerEvict. Server lists and the queue's shape lists name slots, so
// an eviction or a relaunch moves a slot index, not a VM, and touches no
// map. A queued slot carries its own links in its shape's list, so joining
// or leaving the queue touches only the slot and its two neighbours.
//
// The ID index (Site.byID) maps the ID of every held VM to its slot: one
// slot per ID. No two held VMs share an ID, because Run refuses a trace
// that repeats one before its first step, Admit refuses an ID the site
// holds and NewFromState refuses a repeated one. Site.hold enters a slot's
// ID as the slot is taken and Site.release deletes it; only Admit and
// Remove look an ID up.

// Values of slot.server that name no server.
const (
	queuedSlot = -1 // waiting in the pending queue
	freeSlot   = -2 // holds no VM
)

// slot is one held VM and where the site keeps it.
type slot struct {
	vm workload.VM
	// seq is the VM's queue sequence number while it is queued and 0
	// otherwise.
	seq uint64
	// server is the VM's server while it runs, else queuedSlot or freeSlot.
	server int32
	// shape is the pending list of the VM's shape, or -1 until it first
	// queues.
	shape int32
	// prev and next are the slots before and after this one in its shape's
	// list while it is queued, -1 at either end and when it is not queued.
	prev, next int32
	// pos is the VM's position in the expiry heap, or -1 when it has no
	// end time.
	pos int32
}

// Slots live in fixed-size pages, so the table never copies a slot as it
// grows and allocates at most one page more than its peak needs.
const (
	slotPageBits = 8
	slotPageSize = 1 << slotPageBits
)

// slotTable stores the slots and the expiry heap, whose positions the
// slots record.
type slotTable struct {
	pages []*[slotPageSize]slot
	n     int32   // slots ever taken; every slot at or past n is unused
	free  []int32 // released slots, reused last-released first
	// ends is an indexed min-heap on (end, slot) over the held slots that
	// have an end time.
	ends []expiry
}

// expiry is an expiry-heap key: a slot's end time as exact whole seconds
// and nanoseconds since the Unix epoch, which order every time.Time
// without the overflow of UnixNano, then the slot.
type expiry struct {
	sec  int64
	nsec int32
	slot int32
}

func expiryAt(t time.Time, i int32) expiry {
	return expiry{sec: t.Unix(), nsec: int32(t.Nanosecond()), slot: i}
}

func (a expiry) less(b expiry) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.slot < b.slot
}

func (t *slotTable) at(i int32) *slot {
	return &t.pages[i>>slotPageBits][i&(slotPageSize-1)]
}

// take stores vm in a free slot, queued for now, and enters it in the
// expiry heap if it ends. It returns the slot's index and the slot.
func (t *slotTable) take(vm *workload.VM) (int32, *slot) {
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		i = t.n
		t.n++
		if int(i>>slotPageBits) == len(t.pages) {
			t.pages = append(t.pages, new([slotPageSize]slot))
		}
	}
	sl := t.at(i)
	*sl = slot{vm: *vm, server: queuedSlot, shape: -1, prev: -1, next: -1, pos: -1}
	if end := vm.End(); !end.IsZero() {
		sl.pos = int32(len(t.ends))
		t.ends = append(grow(t.ends), expiryAt(end, i))
		t.up(len(t.ends) - 1)
	}
	return i, sl
}

// release frees slot i, which is sl, taking it out of the expiry heap. The
// caller has taken it off its server or out of the queue.
func (t *slotTable) release(i int32, sl *slot) {
	if k := int(sl.pos); k >= 0 {
		last := len(t.ends) - 1
		t.ends[k] = t.ends[last]
		t.ends = t.ends[:last]
		if k < last {
			t.at(t.ends[k].slot).pos = int32(k)
			t.down(k)
			t.up(k)
		}
	}
	// The VM stays until take overwrites it: clearing it would cost a
	// write barrier per pointer word while the collector runs.
	sl.seq, sl.server, sl.shape, sl.pos = 0, freeSlot, -1, -1
	t.free = append(grow(t.free), i)
}

// due returns the held slot whose end comes first if that end is at or
// before now, else -1.
func (t *slotTable) due(now time.Time) int32 {
	if len(t.ends) == 0 {
		return -1
	}
	// Every key at now, whatever its slot, ends by now.
	if x := t.ends[0]; !expiryAt(now, 1<<31-1).less(x) {
		return x.slot
	}
	return -1
}

// up and down restore heap order around position k, recording every
// moved key's position in its slot.
func (t *slotTable) up(k int) {
	h, x := t.ends, t.ends[k]
	for k > 0 {
		p := (k - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[k] = h[p]
		t.at(h[k].slot).pos = int32(k)
		k = p
	}
	h[k] = x
	t.at(x.slot).pos = int32(k)
}

func (t *slotTable) down(k int) {
	h, x := t.ends, t.ends[k]
	for {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(x) {
			break
		}
		h[k] = h[c]
		t.at(h[k].slot).pos = int32(k)
		k = c
	}
	h[k] = x
	t.at(x.slot).pos = int32(k)
}

// grow doubles a full slice's capacity. Past 256 elements append grows a
// slice by about a quarter at a time, which allocates up to five times its
// final size over a run.
func grow[S ~[]E, E any](s S) S {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, len(s)+1)
}
