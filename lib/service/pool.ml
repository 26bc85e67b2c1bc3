(* Fixed-size domain pool over one shared FIFO. The scheduler thread is
   the only producer and every task is a whole provisioning pipeline,
   seconds long, so one mutex and one condition variable are all the
   coordination the traffic needs: a lock round-trip per task is noise
   against the task itself. *)

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable st : 'a state;
}

type t = {
  m : Mutex.t;
  work : Condition.t;  (* signalled on submit, broadcast on shutdown *)
  tasks : (unit -> unit) Stdlib.Queue.t;
  mutable closed : bool;  (* read and written under [m] only *)
  mutable workers : unit Domain.t list;  (* set once, by [create] *)
}

(* Take tasks until the pool is closed AND the queue is empty: queued
   work always completes. Tasks never raise; [submit] wraps them. *)
let rec worker t =
  Mutex.lock t.m;
  while Stdlib.Queue.is_empty t.tasks && not t.closed do
    Condition.wait t.work t.m
  done;
  match Stdlib.Queue.take_opt t.tasks with
  | None -> Mutex.unlock t.m
  | Some task ->
      Mutex.unlock t.m;
      task ();
      worker t

let create ~domains =
  if domains <= 0 then invalid_arg "Service.Pool.create: domains must be positive";
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      tasks = Stdlib.Queue.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker t));
  t

let resolve fut st =
  Mutex.lock fut.fm;
  fut.st <- st;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let submit t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); st = Pending } in
  let task () = resolve fut (match f () with v -> Done v | exception e -> Failed e) in
  Mutex.lock t.m;
  (* [closed] is read under the queue mutex, so a task is either refused
     here or enqueued before [shutdown] closes the pool, and then run
     before any worker exits. *)
  if t.closed then begin
    Mutex.unlock t.m;
    invalid_arg "Service.Pool.submit: pool is shut down"
  end;
  Stdlib.Queue.add task t.tasks;
  Condition.signal t.work;
  Mutex.unlock t.m;
  fut

let await fut =
  Mutex.lock fut.fm;
  while fut.st = Pending do
    Condition.wait fut.fc fut.fm
  done;
  let st = fut.st in
  Mutex.unlock fut.fm;
  match st with Done v -> v | Failed e -> raise e | Pending -> assert false

(* [Domain.join] may be repeated, so every caller waits for the drain. *)
let shutdown t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers
