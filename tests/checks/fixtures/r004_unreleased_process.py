"""R004 fixture: a started worker process nothing stops or joins."""

import multiprocessing


def _work(conn):
    conn.send(conn.recv())


class Worker:
    """Owns its process and pipe: ``close`` releases both."""

    def __init__(self):
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(target=_work, args=(child,))
        self.process.start()

    def close(self):
        self.process.kill()
        self.process.join()
        self.conn.close()


def leak():
    process = multiprocessing.Process(target=print)  # VIOLATION R004
    process.start()
    return process.pid
