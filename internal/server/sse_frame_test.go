package server

import (
	"encoding/json"
	"fmt"
	"testing"

	paretomon "repro"
)

// TestDeliveryEventBytes holds the /subscribe frame builder to what the
// handler wrote before internal/wire existed — json.Marshal of the
// tagged struct inside a Fprintf — including the frame a stream can
// never carry (a delivery reaches only the users it names): nobody is
// [], not null.
func TestDeliveryEventBytes(t *testing.T) {
	for _, d := range []paretomon.Delivery{
		{Object: "o1", Users: []string{"alice", "b<o>b & \"q\""}},
		{Object: "o<1>", Users: nil},
		{Object: "o<1>", Users: []string{}},
	} {
		users := d.Users
		if users == nil {
			users = []string{}
		}
		payload, err := json.Marshal(struct {
			Object string   `json:"object"`
			Users  []string `json:"users"`
		}{d.Object, users})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("event: delivery\ndata: %s\n\n", payload)
		if got := string(appendDeliveryEvent(nil, d)); got != want {
			t.Errorf("frame for %#v = %q, want %q", d, got, want)
		}
	}
	if got, want := string(appendDeliveryEvent(nil, paretomon.Delivery{Object: "o<1>"})),
		"event: delivery\ndata: {\"object\":\"o\\u003c1\\u003e\",\"users\":[]}\n\n"; got != want {
		t.Errorf("frame for nobody = %q, want %q", got, want)
	}
}
