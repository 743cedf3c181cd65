package trace

import (
	"sync"
	"testing"
)

func TestEventLogAppendAndCount(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Kind: EventCheckpoint, Generation: 100, Rank: 0})
	l.Append(Event{Kind: EventFault, Generation: -1, Rank: 2, Detail: "injected"})
	l.Append(Event{Kind: EventRecovery, Generation: 100, Rank: 2, Attempt: 1})
	l.Append(Event{Kind: EventCheckpoint, Generation: 200, Rank: 0})
	if n := len(l.Events()); n != 4 {
		t.Fatalf("len = %d, want 4", n)
	}
	if n := l.Count(EventCheckpoint); n != 2 {
		t.Fatalf("checkpoint count = %d, want 2", n)
	}
	if n := l.Count(EventGiveUp); n != 0 {
		t.Fatalf("give-up count = %d, want 0", n)
	}
	ev := l.Events()
	if ev[0].Kind != EventCheckpoint || ev[1].Kind != EventFault || ev[2].Attempt != 1 {
		t.Fatalf("events out of order: %+v", ev)
	}
	// Events returns a copy: mutating it must not corrupt the log.
	ev[0].Kind = EventGiveUp
	if l.Events()[0].Kind != EventCheckpoint {
		t.Fatal("Events leaked internal storage")
	}
}

func TestEventLogConcurrentAppend(t *testing.T) {
	l := NewEventLog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(Event{Kind: EventCheckpoint, Generation: i})
			}
		}()
	}
	wg.Wait()
	if n := len(l.Events()); n != 800 {
		t.Fatalf("len = %d, want 800", n)
	}
}
