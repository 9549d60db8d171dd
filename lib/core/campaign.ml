(* Persistent campaign state: what a hunt knows that outlives one
   invocation. Each save writes a fresh generation directory holding a
   strict, versioned metadata file, the merged coverage of every
   execution so far, the fuzz corpus, and the archive of found witnesses,
   and then publishes it by renaming one pointer file over the old one:

     DIR/CURRENT                    "gen-NNNNN": the published generation
     DIR/gen-NNNNN/campaign.meta    version, harness, seed, spent budget,
                                    witness kinds
     DIR/gen-NNNNN/coverage         Coverage.to_save of the merged map
     DIR/gen-NNNNN/corpus/NNNNN.trace     corpus entries (Trace.save format)
     DIR/gen-NNNNN/witnesses/NNNNN.trace  one witness per distinct bug kind

   A campaign saved before generations existed has no CURRENT and keeps
   the generation's files in DIR itself; it still loads.

   Every component parses strictly (Trace.of_string / Coverage.of_save
   discipline): resuming from a corrupted campaign must fail loudly, not
   silently hunt something different. *)

type t = {
  harness : string;
  seed : int64;
  executions : int;
  coverage : Coverage.t;
  corpus : Fuzz_strategy.corpus_entry list;
  witnesses : (string * Trace.t) list;
}

let create ~harness ~seed =
  {
    harness;
    seed;
    executions = 0;
    coverage = Coverage.create ();
    corpus = [];
    witnesses = [];
  }

let advance t ~executions ~coverage ~corpus =
  { t with executions = t.executions + executions; coverage; corpus }

(* The one place a run is resumed: the campaign's seed, its first unspent
   iteration and its coverage as prior novelty. Under fuzz the corpus
   flows through an Exchange hub, where the run's novel schedules collect
   too, so the hub's snapshot becomes the next invocation's corpus. *)
let resume t (config : Engine.config) =
  let exchange =
    match config.Engine.strategy with
    | Engine.Fuzz _ -> Some (Fuzz_strategy.Exchange.of_entries t.corpus)
    | _ -> None
  in
  {
    config with
    Engine.seed = t.seed;
    resume =
      {
        Engine.first_iteration = t.executions;
        prior_coverage = Some t.coverage;
        exchange;
      };
  }

let record_witness t ~kind ~trace =
  if List.mem_assoc kind t.witnesses then t
  else { t with witnesses = t.witnesses @ [ (kind, trace) ] }

(* --- Paths -------------------------------------------------------------- *)

let pointer_file dir = Filename.concat dir "CURRENT"
let generation_name g = Printf.sprintf "gen-%05d" g
let meta_file dir = Filename.concat dir "campaign.meta"
let coverage_file dir = Filename.concat dir "coverage"
let corpus_dir dir = Filename.concat dir "corpus"
let witness_dir dir = Filename.concat dir "witnesses"
let numbered d i = Filename.concat d (Printf.sprintf "%05d.trace" i)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> failwith (Printf.sprintf "Campaign.load: %s" msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

(* The published generation's number, strictly parsed; [None] when [dir]
   has no pointer. *)
let read_pointer dir =
  let path = pointer_file dir in
  if not (Sys.file_exists path) then None
  else
    let data = read_file path in
    let n = String.length data in
    let g =
      if n > 5 && String.sub data 0 4 = "gen-" && data.[n - 1] = '\n' then
        int_of_string_opt (String.sub data 4 (n - 5))
      else None
    in
    match g with
    | Some g when g >= 1 && generation_name g ^ "\n" = data -> Some g
    | _ -> failwith (Printf.sprintf "Campaign.load: bad pointer %S" data)

let live_dir ~dir =
  match read_pointer dir with
  | Some g -> Filename.concat dir (generation_name g)
  | None -> dir

(* --- Save --------------------------------------------------------------- *)

let meta_version = "psharp-campaign:2"

(* Canonical corpus-entry metadata line: energy first, then the novelty
   tags in [Coverage.all_family_kinds] order, comma-separated — e.g.
   ["centry:13,fault,hb"]. Normalizing at render time makes the bytes
   canonical whatever order the tags arrived in. *)
let render_centry (e : Fuzz_strategy.corpus_entry) =
  let tags =
    List.filter (fun k -> List.mem k e.Fuzz_strategy.tags)
      Coverage.all_family_kinds
  in
  String.concat ","
    (string_of_int e.Fuzz_strategy.energy
    :: List.map Coverage.family_kind_to_string tags)

let to_meta t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf meta_version;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "harness:%s\n" (Coverage.escape_field t.harness));
  Buffer.add_string buf (Printf.sprintf "seed:%Ld\n" t.seed);
  Buffer.add_string buf (Printf.sprintf "executions:%d\n" t.executions);
  Buffer.add_string buf
    (Printf.sprintf "corpus:%d\n" (List.length t.corpus));
  List.iter
    (fun e ->
      Buffer.add_string buf (Printf.sprintf "centry:%s\n" (render_centry e)))
    t.corpus;
  Buffer.add_string buf
    (Printf.sprintf "witnesses:%d\n" (List.length t.witnesses));
  List.iter
    (fun (kind, _) ->
      Buffer.add_string buf
        (Printf.sprintf "witness:%s\n" (Coverage.escape_field kind)))
    t.witnesses;
  Buffer.add_string buf "end:campaign\n";
  Buffer.contents buf

(* Nothing the published generation holds is written: the new one goes
   to a directory no pointer names yet, and the rename of the pointer,
   atomic in POSIX, is what publishes it. A save that stops before the
   rename (a crash, a full disk, a torn file) leaves the previous
   campaign loadable as it was; the next save clears what it left. Files
   are not fsynced: this survives the process dying, not the machine
   losing power. *)
let save_with ~write ~dir t =
  mkdir_p dir;
  let next = match read_pointer dir with Some g -> g + 1 | None -> 1 in
  let gen = Filename.concat dir (generation_name next) in
  rm_rf gen;
  mkdir_p (corpus_dir gen);
  mkdir_p (witness_dir gen);
  let trace tr = Trace.to_string tr ^ "\n" in
  write (coverage_file gen) (Coverage.to_save t.coverage);
  List.iteri
    (fun i e ->
      write (numbered (corpus_dir gen) i) (trace e.Fuzz_strategy.trace))
    t.corpus;
  List.iteri
    (fun i (_, tr) -> write (numbered (witness_dir gen) i) (trace tr))
    t.witnesses;
  write (meta_file gen) (to_meta t);
  let tmp = pointer_file dir ^ ".tmp" in
  write tmp (generation_name next ^ "\n");
  Sys.rename tmp (pointer_file dir);
  (* every other generation is unreachable now *)
  Array.iter
    (fun f ->
      if String.length f > 4 && String.sub f 0 4 = "gen-"
         && f <> generation_name next
      then rm_rf (Filename.concat dir f))
    (Sys.readdir dir)

let save ~dir t = save_with ~write:write_file ~dir t

(* --- Load --------------------------------------------------------------- *)

let canonical_int64 s =
  match Int64.of_string_opt s with
  | Some n when Int64.to_string n = s -> Some n
  | _ -> None

let of_meta data =
  let lines = String.split_on_char '\n' data in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let field name = function
    | line :: rest ->
      let prefix = name ^ ":" in
      let pl = String.length prefix in
      if String.length line >= pl && String.sub line 0 pl = prefix then
        (String.sub line pl (String.length line - pl), rest)
      else
        failwith
          (Printf.sprintf "Campaign.load: expected %s line, got %S" name line)
    | [] ->
      failwith
        (Printf.sprintf "Campaign.load: truncated meta (missing %s)" name)
  in
  (match lines with
   | v :: _ when v <> meta_version ->
     failwith (Printf.sprintf "Campaign.load: unsupported version line %S" v)
   | [] -> failwith "Campaign.load: empty meta file"
   | _ -> ());
  let rest = List.tl lines in
  let harness, rest = field "harness" rest in
  let seed, rest = field "seed" rest in
  let executions, rest = field "executions" rest in
  let corpus_n, rest = field "corpus" rest in
  let seed =
    match canonical_int64 seed with
    | Some s -> s
    | None -> failwith "Campaign.load: bad seed"
  in
  let executions =
    match Coverage.canonical_int executions with
    | Some n when n >= 0 -> n
    | _ -> failwith "Campaign.load: bad executions count"
  in
  let ints name s =
    match Coverage.canonical_int s with
    | Some n when n >= 0 -> n
    | _ -> failwith (Printf.sprintf "Campaign.load: bad %s count" name)
  in
  let corpus_n = ints "corpus" corpus_n in
  (* Strict corpus-entry metadata: positive canonical energy, known tags,
     canonical tag order, no duplicates — anything else is corruption. *)
  let parse_centry s =
    match String.split_on_char ',' s with
    | [] -> failwith "Campaign.load: empty corpus entry"
    | e :: tags ->
      let energy =
        match Coverage.canonical_int e with
        | Some n when n >= 1 -> n
        | _ ->
          failwith
            (Printf.sprintf "Campaign.load: bad corpus entry energy %S" e)
      in
      let tags =
        List.map
          (fun tag ->
            try Coverage.family_kind_of_string tag
            with Failure _ ->
              failwith
                (Printf.sprintf "Campaign.load: unknown corpus entry tag %S"
                   tag))
          tags
      in
      let canonical =
        List.filter (fun k -> List.mem k tags) Coverage.all_family_kinds
      in
      if canonical <> tags then
        failwith
          (Printf.sprintf "Campaign.load: non-canonical corpus entry tags %S"
             s);
      (energy, tags)
  in
  let rec take_centries n acc rest =
    if n = 0 then (List.rev acc, rest)
    else
      let line, rest = field "centry" rest in
      take_centries (n - 1) (parse_centry line :: acc) rest
  in
  let centries, rest = take_centries corpus_n [] rest in
  let witness_n, rest = field "witnesses" rest in
  let witness_n = ints "witnesses" witness_n in
  let rec take_witnesses n acc rest =
    if n = 0 then (List.rev acc, rest)
    else
      let kind, rest = field "witness" rest in
      take_witnesses (n - 1) (Coverage.unescape_field kind :: acc) rest
  in
  let kinds, rest = take_witnesses witness_n [] rest in
  (match rest with
   | [ "end:campaign" ] -> ()
   | [] -> failwith "Campaign.load: truncated meta (missing end line)"
   | line :: _ ->
     failwith (Printf.sprintf "Campaign.load: unexpected meta line %S" line));
  (Coverage.unescape_field harness, seed, executions, centries, kinds)

let load_trace path =
  try Trace.of_string (read_file path)
  with Failure msg -> failwith (Printf.sprintf "%s (in %s)" msg path)

let load ~dir =
  let dir = live_dir ~dir in
  let harness, seed, executions, centries, kinds =
    of_meta (read_file (meta_file dir))
  in
  let coverage =
    try Coverage.of_save (read_file (coverage_file dir))
    with Failure msg ->
      failwith (Printf.sprintf "%s (in %s)" msg (coverage_file dir))
  in
  let corpus =
    List.mapi
      (fun i (energy, tags) ->
        {
          Fuzz_strategy.trace = load_trace (numbered (corpus_dir dir) i);
          energy;
          tags;
        })
      centries
  in
  let witnesses =
    List.mapi (fun i kind -> (kind, load_trace (numbered (witness_dir dir) i)))
      kinds
  in
  { harness; seed; executions; coverage; corpus; witnesses }

let load_opt ~dir =
  if Sys.file_exists (meta_file (live_dir ~dir)) then Some (load ~dir)
  else None

let pp fmt t =
  Format.fprintf fmt
    "campaign: harness %s, seed %Ld, %d execution(s) spent, %d corpus \
     entr%s, %d witness(es)"
    t.harness t.seed t.executions (List.length t.corpus)
    (if List.length t.corpus = 1 then "y" else "ies")
    (List.length t.witnesses)
