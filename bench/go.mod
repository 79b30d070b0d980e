module cqbound/bench

go 1.24

require cqbound v0.0.0

replace cqbound => ../
