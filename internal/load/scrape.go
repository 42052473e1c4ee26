package load

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsePrometheus reads a text exposition (version 0.0.4) and returns
// full series id (name plus rendered labels) → value. Comment and
// blank lines are skipped; a malformed sample line is an error.
// perfbench serve parses the GET /metrics scrapes it takes around its
// open-loop phase with it, and so do the dmfserve tests.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space: series ids may contain spaces
		// only inside quoted label values, which the encoder escapes, so
		// the final space is always the id/value separator.
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			return nil, fmt.Errorf("load: bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("load: bad metrics value in %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:idx])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
