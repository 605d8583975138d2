package obshttp

import (
	"encoding/json"
	"sync"

	"futurebus/internal/obs"
)

// DefaultReplay is how many recent events a new /events subscriber is
// handed before live frames start — enough for a scrape-and-go client
// (the CI smoke test) to observe traffic deterministically even if it
// attaches between bursts.
const DefaultReplay = 64

// DefaultSubscriberBuffer is the per-subscriber channel depth before
// shedding starts.
const DefaultSubscriberBuffer = 256

// EventStream is a Sink that fans the event stream out to HTTP
// subscribers as JSON frames. It marshals nothing while nobody
// subscribes: the replay ring keeps the most recent events as values,
// and a frame is marshalled once per event only while a subscriber is
// live (the ring's frames at Subscribe). Consume must never block on a
// slow consumer: sends are non-blocking and frames a subscriber cannot
// keep up with are shed (counted per subscriber and globally),
// mirroring how the JSONL sink handles backpressure by not having any.
type EventStream struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	ring   [DefaultReplay]obs.Event // the most recent events
	next   int                      // ring slot the next event fills
	held   int                      // events in the ring
	shed   int64                    // frames dropped across all subscribers
	frames int64                    // frames marshalled for subscribers
}

type subscriber struct {
	ch   chan []byte
	shed int64 // frames this subscriber missed
}

// NewEventStream creates a stream with the default replay depth.
func NewEventStream() *EventStream {
	return &EventStream{subs: make(map[*subscriber]struct{})}
}

// Consume implements obs.Sink: keep the event for the replay ring and,
// while anyone subscribes, marshal it once and fan it out without
// blocking. Ring and fan-out change under one lock, so a subscriber
// sees each event exactly once: in its replay or live.
func (es *EventStream) Consume(e *obs.Event) {
	es.mu.Lock()
	defer es.mu.Unlock()
	es.ring[es.next] = *e
	es.next = (es.next + 1) % DefaultReplay
	es.held = min(es.held+1, DefaultReplay)
	if len(es.subs) == 0 {
		return
	}
	frame, err := json.Marshal(e)
	if err != nil {
		return // events are plain structs; this cannot happen
	}
	es.frames++
	for s := range es.subs {
		select {
		case s.ch <- frame:
		default:
			s.shed++
			es.shed++
		}
	}
}

// Flush implements obs.Sink.
func (es *EventStream) Flush() error { return nil }

// Subscribe registers a consumer. It returns the frame channel, the
// replay ring marshalled oldest first (events that arrived before this
// subscriber), and a cancel function that must be called exactly once;
// after cancel the channel is closed.
func (es *EventStream) Subscribe() (<-chan []byte, [][]byte, func()) {
	s := &subscriber{ch: make(chan []byte, DefaultSubscriberBuffer)}
	es.mu.Lock()
	es.subs[s] = struct{}{}
	replay := make([][]byte, 0, es.held)
	for i := es.held; i > 0; i-- {
		if frame, err := json.Marshal(&es.ring[(es.next-i+DefaultReplay)%DefaultReplay]); err == nil {
			replay = append(replay, frame)
		}
	}
	es.frames += int64(len(replay))
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

// Stats reports frames marshalled for subscribers (live and replay)
// and frames shed across all subscribers since creation.
func (es *EventStream) Stats() (frames, shed int64) {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.frames, es.shed
}
