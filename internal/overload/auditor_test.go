package overload

import (
	"strings"
	"testing"

	"armnet/internal/admission"
	"armnet/internal/des"
	"armnet/internal/eventbus"
	"armnet/internal/qos"
	"armnet/internal/topology"
)

// dropFixture admits one bystander connection on a single-link route and
// returns everything needed to replay an admission-failure + dropped-
// handoff sequence against the auditor.
func dropFixture(t *testing.T) (*eventbus.Bus, *admission.Ledger, topology.LinkID) {
	t.Helper()
	b := topology.NewBackbone()
	b.MustAddNode(topology.Node{ID: "bs"})
	b.MustAddNode(topology.Node{ID: "air"})
	link, err := b.AddLink(topology.Link{From: "bs", To: "air", Capacity: 1.6e6, Wireless: true})
	if err != nil {
		t.Fatal(err)
	}
	lg := admission.NewLedger(b)
	ctl := admission.NewController(lg)
	res, err := ctl.Admit(admission.Test{
		ConnID: "bystander",
		Req: qos.Request{
			Bandwidth: qos.Bounds{Min: 64e3, Max: 256e3},
			Delay:     2, Jitter: 2, Loss: 0.02,
			Traffic: qos.TrafficSpec{Sigma: 16e3, Rho: 64e3},
		},
		Route:    topology.Route{Links: []*topology.Link{link}},
		Mobility: qos.Static,
	})
	if err != nil || !res.Admitted {
		t.Fatalf("fixture admission failed: %+v %v", res, err)
	}
	return eventbus.New(des.New()), lg, link.ID
}

// replayDrop publishes the event sequence the auditor watches: a failed
// admission for the handoff naming the contended link, then the drop.
func replayDrop(bus *eventbus.Bus, link topology.LinkID) {
	bus.Publish(eventbus.AdmissionDecision{Conn: "victim", Admitted: false, Link: string(link)})
	bus.Publish(eventbus.HandoffOutcome{Conn: "victim", Dropped: true})
}

func TestAuditorFlagsDropWithDegradableExcess(t *testing.T) {
	bus, lg, link := dropFixture(t)
	// The bystander holds excess above b_min at the drop instant.
	if err := lg.SetAllocation("bystander", link, 200e3); err != nil {
		t.Fatal(err)
	}
	aud := &Auditor{Ledger: lg}
	aud.Watch(bus)
	var published []string
	bus.Subscribe(func(r eventbus.Record) {
		published = append(published, r.Event.(eventbus.InvariantViolation).Invariant)
	}, eventbus.KindInvariantViolation)
	replayDrop(bus, link)
	if len(aud.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one", aud.Violations)
	}
	if !strings.Contains(aud.Violations[0], "degrade-before-drop") ||
		!strings.Contains(aud.Violations[0], "bystander") {
		t.Fatalf("violation text %q", aud.Violations[0])
	}
	if len(published) != 1 || published[0] != "degrade-before-drop" {
		t.Fatalf("published violations = %v", published)
	}
}

func TestAuditorCleanWhenEveryoneAtMin(t *testing.T) {
	bus, lg, link := dropFixture(t)
	al, _ := lg.Link(link).Alloc("bystander")
	if err := lg.SetAllocation("bystander", link, al.Min); err != nil {
		t.Fatal(err)
	}
	aud := &Auditor{Ledger: lg}
	aud.Watch(bus)
	replayDrop(bus, link)
	if len(aud.Violations) != 0 {
		t.Fatalf("violations = %v, want none: the cascade had already run", aud.Violations)
	}
}

func TestAuditorRespectsDegradableFilter(t *testing.T) {
	bus, lg, link := dropFixture(t)
	if err := lg.SetAllocation("bystander", link, 200e3); err != nil {
		t.Fatal(err)
	}
	aud := &Auditor{Ledger: lg, Degradable: func(string) bool { return false }}
	aud.Watch(bus)
	replayDrop(bus, link)
	if len(aud.Violations) != 0 {
		t.Fatalf("violations = %v, want none: nothing is degradable", aud.Violations)
	}
}

func TestAuditorForgivesAfterReadmission(t *testing.T) {
	bus, lg, link := dropFixture(t)
	if err := lg.SetAllocation("bystander", link, 200e3); err != nil {
		t.Fatal(err)
	}
	aud := &Auditor{Ledger: lg}
	aud.Watch(bus)
	// The failed test is superseded by a successful one (the degrade-
	// then-retry path); a later drop for another reason must not blame
	// the forgotten link.
	bus.Publish(eventbus.AdmissionDecision{Conn: "victim", Admitted: false, Link: string(link)})
	bus.Publish(eventbus.AdmissionDecision{Conn: "victim", Admitted: true})
	bus.Publish(eventbus.HandoffOutcome{Conn: "victim", Dropped: true})
	if len(aud.Violations) != 0 {
		t.Fatalf("violations = %v, want none after readmission", aud.Violations)
	}
}
