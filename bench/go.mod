module bagpipe/bench

go 1.24

require bagpipe v0.0.0

replace bagpipe => ../
