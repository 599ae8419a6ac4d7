package sim

import (
	"fmt"
	"strings"

	"armnet/internal/mobility"
	"armnet/internal/randx"
)

const (
	// figure2Students sizes the underlying meeting scenario.
	figure2Students = 40
	// figure2SlotMinutes is the histogram bin width.
	figure2SlotMinutes = 5
)

// Figure2Result is the activity histogram of a lounge over the scenario.
type Figure2Result struct {
	SlotMinutes int
	// Activity is handoffs into+out of the lounge per slot.
	Activity []int
}

// RunFigure2 reproduces the paper's Figure 2 sketch — the spiky handoff
// activity profile of a lounge (meeting room) over time — from the
// simulated classroom scenario. Every seed is valid and distinct,
// including 0.
func RunFigure2(seed int64) (Figure2Result, error) {
	mcfg := mobility.MeetingClassConfig{
		Students: figure2Students,
		Start:    3600,
		End:      3600 + 50*60,
	}
	mcfg.Horizon = mcfg.End + 1800
	tr, err := mobility.MeetingClass(mcfg, randx.New(seed))
	if err != nil {
		return Figure2Result{}, err
	}
	slot := float64(figure2SlotMinutes) * 60
	return Figure2Result{
		SlotMinutes: figure2SlotMinutes,
		Activity:    mobility.HandoffSeries(tr, "M", mobility.Touch, slot, mcfg.Horizon),
	}, nil
}

// String renders the histogram as an ASCII sketch like the paper's
// figure.
func (r Figure2Result) String() string {
	var b strings.Builder
	max := 1
	for _, v := range r.Activity {
		if v > max {
			max = v
		}
	}
	for i, v := range r.Activity {
		bar := strings.Repeat("#", v*50/max)
		fmt.Fprintf(&b, "%4d min |%-50s| %d\n", i*r.SlotMinutes, bar, v)
	}
	return b.String()
}
