module armnet/bench

go 1.22

require armnet v0.0.0

replace armnet => ../
