module reef/bench

go 1.24

require reef v0.0.0

replace reef => ../
