// Package netfaults names the wire plane's fault plan for the bench
// module, which spells it netfaults.Plan. The plan model, grammar and
// rule walk are internal/faults' (faults.ParseWirePlan parses a wire
// plan); internal/testnet's chaos layer applies it to the encoded frames
// the live transports carry.
package netfaults

import "armnet/internal/faults"

// Plan is faults.Plan; drop the alias with the bench refresh (ROADMAP 5
// (e)).
type Plan = faults.Plan
