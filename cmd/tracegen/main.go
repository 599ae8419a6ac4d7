// Command tracegen generates mobility traces in the repository's CSV
// interchange format (time,portable,from,to), for replay by
// `armsim -mobility-trace` or external analysis.
//
// Usage:
//
//	tracegen -model officeweek > week.csv        # §7.1-calibrated office trace
//	tracegen -model meeting -students 55 > lab.csv
//	tracegen -model randomwalk -topology campus -portables 30 -duration 7200
package main

import (
	"flag"
	"fmt"
	"os"

	"armnet/internal/mobility"
	"armnet/internal/randx"
	"armnet/internal/topology"
)

func main() {
	model := flag.String("model", "officeweek", "trace model: officeweek, meeting, randomwalk")
	seed := flag.Int64("seed", 1, "random seed")
	students := flag.Int("students", 35, "meeting model: class size")
	walkBys := flag.Int("walkbys", 400, "meeting model: corridor through-traffic")
	topo := flag.String("topology", "campus", "randomwalk model: campus, figure4, meetingwing, corridor")
	portables := flag.Int("portables", 20, "randomwalk model: population")
	duration := flag.Float64("duration", 3600, "randomwalk model: horizon (s)")
	dwell := flag.Float64("dwell", 180, "randomwalk model: mean dwell (s)")
	flag.Parse()

	tr, err := generate(*model, *seed, *students, *walkBys, *topo, *portables, *duration, *dwell)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	if err := tr.WriteCSV(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func generate(model string, seed int64, students, walkBys int, topo string, portables int, duration, dwell float64) (*mobility.Trace, error) {
	rng := randx.New(seed)
	switch model {
	case "officeweek":
		return mobility.OfficeWeek(mobility.PaperOfficeWeek("faculty", []string{"stu-a", "stu-b", "stu-c"}), rng)
	case "meeting":
		cfg := mobility.MeetingClassConfig{
			Students:   students,
			Start:      3600,
			End:        3600 + 50*60,
			WalkBys:    walkBys,
			WalkByPeak: true,
		}
		return mobility.MeetingClass(cfg, rng)
	case "randomwalk":
		env, err := topology.BuildNamed(topo)
		if err != nil {
			return nil, err
		}
		names := make([]string, portables)
		for i := range names {
			names[i] = fmt.Sprintf("p%02d", i)
		}
		return mobility.RandomWalk(env.Universe, names, dwell, duration, rng)
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}
