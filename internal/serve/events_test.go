package serve

import (
	"encoding/json"
	"testing"
)

// TestEventJSONPinned pins Event.MarshalJSON against strings recorded
// while State was still a pointer (the last case is the output for the
// same event with no payload): "state" appears on a state sample, even
// one whose fields are all zero, and on nothing else.
func TestEventJSONPinned(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{Seq: 4, Time: 222273410, Type: EventStateSample, Instance: "GH200#0",
				State: StateSample{Queue: 2, Running: 1, KVFrac: 0.0000035138533179023115, CacheLookups: 21, CacheHits: 7}},
			`{"seq":4,"t_ns":222273410,"type":"state-sample","req":0,"instance":"GH200#0","state":{"Queue":2,"Running":1,"KVFrac":0.0000035138533179023115,"CacheLookups":21,"CacheHits":7}}`,
		},
		{
			Event{Seq: 9, Time: 10, Type: EventStateSample},
			`{"seq":9,"t_ns":10,"type":"state-sample","req":0,"state":{"Queue":0,"Running":0,"KVFrac":0,"CacheLookups":0,"CacheHits":0}}`,
		},
		{
			Event{Seq: 12, Time: 5000, Type: EventCompleted, RequestID: 3, SessionID: 11, Instance: "H100#1", TTFT: 100, TPOT: 20, Tokens: 64},
			`{"seq":12,"t_ns":5000,"type":"completed","req":3,"session":11,"instance":"H100#1","ttft_ns":100,"tpot_ns":20,"tokens":64}`,
		},
		{
			Event{Seq: 13, Time: 6000, Type: EventArrival},
			`{"seq":13,"t_ns":6000,"type":"arrival","req":0}`,
		},
		{
			// A stray payload on another type stays out of the JSON.
			Event{Seq: 14, Time: 7000, Type: EventAdmitted, RequestID: 5, State: StateSample{Queue: 3}},
			`{"seq":14,"t_ns":7000,"type":"admitted","req":5}`,
		},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.ev)
		if err != nil {
			t.Fatalf("%v: %v", c.ev.Type, err)
		}
		if string(got) != c.want {
			t.Errorf("%v:\n got %s\nwant %s", c.ev.Type, got, c.want)
		}
	}
}
