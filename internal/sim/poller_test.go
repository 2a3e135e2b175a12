package sim

import (
	"reflect"
	"testing"
)

// testLoop is a one-queue owner of a Poller: each item costs 10ns.
type testLoop struct {
	poll    *Poller
	q       []int
	budget  int
	abandon bool
	passes  int
	served  []int
}

func newTestLoop(eng *Engine, budget int) *testLoop {
	l := &testLoop{budget: budget}
	l.poll = NewPoller(eng, NewResource(eng, "core"), l.pass, func() bool { return len(l.q) > 0 })
	return l
}

func (l *testLoop) pass() bool {
	l.passes++
	if l.abandon {
		return false
	}
	for _, v := range Take(&l.q, l.budget) {
		v := v
		l.poll.Core.Schedule(10, func(Time) { l.served = append(l.served, v) })
	}
	return true
}

func TestPollerKickDuringQueuedPassIsNoop(t *testing.T) {
	eng := NewEngine()
	l := newTestLoop(eng, 8)
	l.q = []int{1, 2}
	l.poll.Kick()
	l.poll.Kick()
	l.poll.Kick()
	if eng.Pending() != 1 {
		t.Fatalf("pending events after three kicks = %d, want 1", eng.Pending())
	}
	eng.Run()
	if l.passes != 1 {
		t.Fatalf("passes = %d, want 1", l.passes)
	}
}

func TestPollerDrainsOverBudgetQueueFIFO(t *testing.T) {
	eng := NewEngine()
	l := newTestLoop(eng, 3)
	for i := 0; i < 8; i++ {
		l.q = append(l.q, i)
	}
	l.poll.Kick()
	eng.Run()
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(l.served, want) {
		t.Fatalf("served = %v, want %v", l.served, want)
	}
	if l.passes != 3 {
		t.Fatalf("passes = %d, want 3 (8 items, budget 3)", l.passes)
	}
	if eng.Now() != 80 {
		t.Fatalf("finished at %d, want 80 (8 items x 10ns back to back)", eng.Now())
	}
}

func TestPollerKickWhileClosingIsNoop(t *testing.T) {
	eng := NewEngine()
	l := newTestLoop(eng, 8)
	l.q = []int{1}
	l.poll.Kick()
	// At t=5 the pass has run and its closing job is still behind the
	// item's CPU: a kick here must not start a second, overlapping pass.
	eng.At(5, func() {
		l.q = append(l.q, 2)
		l.poll.Kick()
	})
	eng.Run()
	if l.passes != 2 || !reflect.DeepEqual(l.served, []int{1, 2}) {
		t.Fatalf("passes = %d served = %v, want 2 passes serving [1 2]", l.passes, l.served)
	}
}

func TestPollerAbandonedPassLeavesCoreKickable(t *testing.T) {
	eng := NewEngine()
	l := newTestLoop(eng, 8)
	l.q = []int{7}
	l.abandon = true
	l.poll.Kick()
	eng.Run()
	if l.passes != 1 || len(l.served) != 0 || l.poll.Core.Jobs() != 0 {
		t.Fatalf("abandoned pass ran work: passes=%d served=%v jobs=%d", l.passes, l.served, l.poll.Core.Jobs())
	}
	l.abandon = false
	l.poll.Kick()
	eng.Run()
	if !reflect.DeepEqual(l.served, []int{7}) {
		t.Fatalf("served after re-kick = %v, want [7]", l.served)
	}
}

func TestPollerIdleLeavesNoPendingEvent(t *testing.T) {
	eng := NewEngine()
	l := newTestLoop(eng, 8)
	if eng.Pending() != 0 {
		t.Fatalf("new poller scheduled %d events", eng.Pending())
	}
	l.q = []int{1, 2, 3}
	l.poll.Kick()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("drained poller left %d pending events", eng.Pending())
	}
	if !l.poll.Core.Idle() {
		t.Fatal("drained poller's core still busy")
	}
}
