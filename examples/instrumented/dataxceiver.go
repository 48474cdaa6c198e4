// The simplified HDFS DataXceiver of the paper's Figure 3, carrying the
// instrumentation cmd/saad-instrument inserted. Its log-point ids were
// assigned from the committed saad-dict.json; cmd/saad-instrument's tests
// run `saad-instrument -check` over this directory, so tier-1 fails when an
// id is duplicated or unknown to the dictionary, a template has drifted
// since assignment, or a log statement has lost its Hit.

package main

import (
	"log"

	"saad/examples/instrumented/saadlog"
)

// DataXceiver streams the packets of one block to disk, one task per
// block (dispatcher-worker staging: each Run is one tracked task).
type DataXceiver struct{ blockID int64 }

// Run receives every packet of the block and writes it to the block file.
func (d *DataXceiver) Run(packets [][]byte) {
	saadlog.Hit(1)
	log.Printf("Receiving block blk_%d", d.blockID)
	for _, pkt := range packets {
		saadlog.Hit(2)
		log.Printf("Receiving one packet for blk_%d", d.blockID)
		if len(pkt) == 0 {
			saadlog.Hit(3)
			log.Printf("Receiving empty packet for blk_%d", d.blockID)
			continue
		}
		saadlog.Hit(4)
		log.Printf("WriteTo blockfile of size %d", len(pkt))
	}
	saadlog.Hit(5)
	log.Println("Closing down.")
}
