package serve

import (
	"bytes"
	"fmt"
	"testing"
)

// publish appends line to l's ring under l.mu, as emit does.
func publish(l *eventLog, line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.publishLocked([]byte(line))
}

// lines renders a replay for failure messages.
func lines(replay [][]byte) []string {
	out := make([]string, len(replay))
	for i, b := range replay {
		out[i] = string(b)
	}
	return out
}

// TestEventLogReplayBelowCapacity pins the easy half: fewer lines than
// the ring holds replay verbatim, in publish order.
func TestEventLogReplayBelowCapacity(t *testing.T) {
	l := newEventLog(4)
	publish(l, "1")
	publish(l, "2")
	replay, _, cancel := l.subscribe()
	defer cancel()
	if len(replay) != 2 || string(replay[0]) != "1" || string(replay[1]) != "2" {
		t.Fatalf("replay = %v, want [1 2]", lines(replay))
	}
}

// TestEventLogReplayAcrossWrap pins the head-index ring at and past
// the wrap boundary: replay is always the last cap lines, oldest
// first, exactly as the round-1 shift-down ring ordered them.
func TestEventLogReplayAcrossWrap(t *testing.T) {
	const capacity = 4
	for published := capacity; published <= 3*capacity+1; published++ {
		l := newEventLog(capacity)
		for i := 1; i <= published; i++ {
			publish(l, fmt.Sprintf("%d", i))
		}
		replay, _, cancel := l.subscribe()
		cancel()
		if len(replay) != capacity {
			t.Fatalf("after %d publishes: replay holds %d lines, want %d", published, len(replay), capacity)
		}
		for i := 0; i < capacity; i++ {
			want := fmt.Sprintf("%d", published-capacity+1+i)
			if string(replay[i]) != want {
				t.Fatalf("after %d publishes: replay = %v, want last %d in order", published, lines(replay), capacity)
			}
		}
	}
}

// TestEventLogLiveDeliveryAfterWrap pins that a subscriber attached
// after the ring has wrapped still gets live lines alongside the
// replayed window.
func TestEventLogLiveDeliveryAfterWrap(t *testing.T) {
	l := newEventLog(2)
	for i := 1; i <= 5; i++ {
		publish(l, fmt.Sprintf("%d", i))
	}
	replay, ch, cancel := l.subscribe()
	defer cancel()
	if len(replay) != 2 || string(replay[0]) != "4" || string(replay[1]) != "5" {
		t.Fatalf("replay = %v, want [4 5]", lines(replay))
	}
	publish(l, "6")
	if got := <-ch; !bytes.Equal(got, []byte("6")) {
		t.Fatalf("live line = %q, want 6", got)
	}
	l.close()
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after close")
	}
}
