type app =
  | Genome
  | Intruder
  | Kmeans_low
  | Kmeans_high
  | Labyrinth
  | Ssca2
  | Vacation_low
  | Vacation_high

let all =
  [
    Genome;
    Intruder;
    Kmeans_low;
    Kmeans_high;
    Labyrinth;
    Ssca2;
    Vacation_low;
    Vacation_high;
  ]

let name = function
  | Genome -> "genome"
  | Intruder -> "intruder"
  | Kmeans_low -> "kmeans-low"
  | Kmeans_high -> "kmeans-high"
  | Labyrinth -> "labyrinth"
  | Ssca2 -> "ssca2"
  | Vacation_low -> "vacation-low"
  | Vacation_high -> "vacation-high"

let of_name s = List.find_opt (fun a -> name a = s) all

let scaled s n = max 1 (int_of_float (float_of_int n *. s))

let program app ~scale =
  match app with
  | Genome ->
      Genome.program
        { Genome.default with Genome.n_segs = scaled scale Genome.default.Genome.n_segs }
  | Intruder ->
      Intruder.program
        { Intruder.default with Intruder.flows = scaled scale Intruder.default.Intruder.flows }
  | Kmeans_low ->
      Kmeans.program
        { Kmeans.low with Kmeans.points = scaled scale Kmeans.low.Kmeans.points }
  | Kmeans_high ->
      Kmeans.program
        { Kmeans.high with Kmeans.points = scaled scale Kmeans.high.Kmeans.points }
  | Labyrinth ->
      Labyrinth.program
        { Labyrinth.default with Labyrinth.paths = scaled scale Labyrinth.default.Labyrinth.paths }
  | Ssca2 ->
      Ssca2.program
        { Ssca2.default with Ssca2.edges = scaled scale Ssca2.default.Ssca2.edges }
  | Vacation_low ->
      Vacation.program
        { Vacation.low with Vacation.txns = scaled scale Vacation.low.Vacation.txns }
  | Vacation_high ->
      Vacation.program
        { Vacation.high with Vacation.txns = scaled scale Vacation.high.Vacation.txns }

let run_scaled app ~scale tm_cfg ~threads =
  Stamp_common.run ~name:(name app) tm_cfg ~threads (program app ~scale)

let run app tm_cfg ~threads = run_scaled app ~scale:1.0 tm_cfg ~threads
