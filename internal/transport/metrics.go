package transport

import "dmfsgd/internal/metrics"

// Process-wide transport counters (DESIGN.md §12). Registered once at
// init into the default registry; the gossip and cluster TCP endpoints
// of a process accumulate into the same cells.
var (
	mFramesSent = metrics.Default().Counter("dmf_transport_frames_sent_total",
		"TCP frames written (gossip and cluster lanes).")
	mBytesSent = metrics.Default().Counter("dmf_transport_bytes_sent_total",
		"TCP payload bytes written, excluding the 4-byte length prefix.")
	mFramesRecv = metrics.Default().Counter("dmf_transport_frames_recv_total",
		"TCP frames read and enqueued.")
	mBytesRecv = metrics.Default().Counter("dmf_transport_bytes_recv_total",
		"TCP payload bytes read.")
	mDialErrors = metrics.Default().Counter("dmf_transport_dial_errors_total",
		"Outbound dials that failed.")
	mRedials = metrics.Default().Counter("dmf_transport_redials_total",
		"Dials replacing a connection dropped after an error.")
)
