package obshttp

import (
	"encoding/json"
	"sync"

	"futurebus/internal/obs"
)

// DefaultReplay is how many recent frames a new /events subscriber is
// handed before live frames start — enough for a scrape-and-go client
// (the CI smoke test) to observe traffic deterministically even if it
// attaches between bursts.
const DefaultReplay = 64

// DefaultSubscriberBuffer is the per-subscriber channel depth before
// shedding starts.
const DefaultSubscriberBuffer = 256

// EventStream is a Sink that fans the event stream out to HTTP
// subscribers as pre-marshalled JSON frames. Consume must never block
// on a slow consumer: sends are non-blocking and frames a
// subscriber cannot keep up with are shed (counted per subscriber and
// globally), mirroring how the JSONL sink handles backpressure by not
// having any.
type EventStream struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	replay [][]byte // ring of the most recent frames, oldest first
	shed   int64    // frames dropped across all subscribers
	frames int64    // frames marshalled
}

type subscriber struct {
	ch   chan []byte
	shed int64 // frames this subscriber missed
}

// NewEventStream creates a stream with the default replay depth.
func NewEventStream() *EventStream {
	return &EventStream{subs: make(map[*subscriber]struct{})}
}

// Consume implements obs.Sink: marshal once, fan out without blocking.
func (es *EventStream) Consume(e *obs.Event) {
	frame, err := json.Marshal(e)
	if err != nil {
		return // events are plain structs; this cannot happen
	}
	es.mu.Lock()
	es.frames++
	if len(es.replay) == DefaultReplay {
		copy(es.replay, es.replay[1:])
		es.replay[len(es.replay)-1] = frame
	} else {
		es.replay = append(es.replay, frame)
	}
	for s := range es.subs {
		select {
		case s.ch <- frame:
		default:
			s.shed++
			es.shed++
		}
	}
	es.mu.Unlock()
}

// Flush implements obs.Sink.
func (es *EventStream) Flush() error { return nil }

// Subscribe registers a consumer. It returns the frame channel, a
// snapshot of the replay ring (frames that arrived before this
// subscriber), and a cancel function that must be called exactly once;
// after cancel the channel is closed.
func (es *EventStream) Subscribe() (<-chan []byte, [][]byte, func()) {
	s := &subscriber{ch: make(chan []byte, DefaultSubscriberBuffer)}
	es.mu.Lock()
	es.subs[s] = struct{}{}
	replay := append([][]byte(nil), es.replay...)
	es.mu.Unlock()
	cancel := func() {
		es.mu.Lock()
		_, live := es.subs[s]
		delete(es.subs, s)
		es.mu.Unlock()
		if live {
			close(s.ch)
		}
	}
	return s.ch, replay, cancel
}

// Stats reports frames marshalled and frames shed across all
// subscribers since creation.
func (es *EventStream) Stats() (frames, shed int64) {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.frames, es.shed
}
