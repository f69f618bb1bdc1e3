// Package all registers every built-in planner with the planner registry.
// Commands and test binaries that resolve planners by name import it for
// side effects:
//
//	import _ "graphpipe/internal/planner/all"
package all

import (
	_ "graphpipe/internal/baselines"
	_ "graphpipe/internal/core"
)
