module saga/bench

go 1.24

require saga v0.0.0

replace saga => ../
